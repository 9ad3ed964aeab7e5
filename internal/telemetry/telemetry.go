// Package telemetry simulates the node-telemetry substrate for the
// monitoring/logging agent class (§2 of the SOL paper): a set of
// telemetry channels (counter groups, log sources) that a monitoring
// agent samples under a fixed off-node logging budget.
//
// Each channel carries events at a time-varying rate: long steady
// phases punctuated by bursts. Sampling a channel during an interval
// observes the events that occurred in it; unsampled intervals lose
// their events — the oversampling/undersampling trade-off the paper
// argues learning can optimize ("in steady-state this results in
// oversampling, whereas in highly-dynamic periods this can result in
// undersampling and the loss of important information").
package telemetry

import (
	"fmt"
	"time"

	"sol/internal/clock"
	"sol/internal/stats"
)

// Config describes the telemetry source.
type Config struct {
	// Channels is the number of telemetry channels.
	Channels int
	// Interval is the sampling decision granularity.
	Interval time.Duration
	// Budget is the number of channel-samples allowed per interval
	// (the off-node logging budget).
	Budget int
	// Seed drives event generation.
	Seed uint64
}

// DefaultConfig returns the experiments' configuration: 16 channels,
// a budget of 4 channel-samples per 100 ms.
func DefaultConfig() Config {
	return Config{Channels: 16, Interval: 100 * time.Millisecond, Budget: 4, Seed: 1}
}

func (c Config) validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("telemetry: Channels = %d, must be positive", c.Channels)
	case c.Interval <= 0:
		return fmt.Errorf("telemetry: Interval = %v, must be positive", c.Interval)
	case c.Budget <= 0 || c.Budget > c.Channels:
		return fmt.Errorf("telemetry: Budget = %d out of [1, %d]", c.Budget, c.Channels)
	}
	return nil
}

// channel is one telemetry source.
type channel struct {
	baseRate  float64 // events/sec in steady state
	burstRate float64 // events/sec while bursting
	bursting  bool
	burstEnd  time.Time
	nextBurst time.Time
	// events draws the per-interval event counts; the rate only moves
	// when a burst starts or ends.
	events stats.PoissonSampler

	// pending holds the current interval's events; they are lost at the
	// next interval boundary if not sampled (fine-grained telemetry is
	// only useful fresh, and node-local buffers are tiny).
	pending int
}

// Source is the simulated telemetry substrate.
type Source struct {
	cfg  Config
	clk  clock.Clock
	rng  *stats.RNG
	chs  []channel
	tick clock.Timer

	totalEvents    float64
	observedEvents float64
	lostEvents     float64
	samplesTaken   uint64
	overBudget     uint64
	started        bool
}

// New builds a Source on clk. Channels are heterogeneous: a few are
// chatty, most are quiet, and all burst occasionally.
func New(clk clock.Clock, cfg Config) (*Source, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	chs := make([]channel, cfg.Channels)
	for i := range chs {
		base := 0.5 + 4*rng.Float64() // quiet: 0.5-4.5 events/s
		if i%4 == 0 {
			base *= 8 // a quarter of the channels are chatty
		}
		chs[i] = channel{
			baseRate:  base,
			burstRate: base * 30,
			nextBurst: clk.Now().Add(time.Duration(float64(45*time.Second) * (0.5 + rng.Float64()))),
		}
	}
	return &Source{cfg: cfg, clk: clk, rng: rng, chs: chs}, nil
}

// MustNew is New but panics on error.
func MustNew(clk clock.Clock, cfg Config) *Source {
	s, err := New(clk, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the source configuration.
func (s *Source) Config() Config { return s.cfg }

// Start begins event generation. Events accrue per channel each
// interval; sampling harvests them.
func (s *Source) Start() {
	if s.started {
		panic("telemetry: Start called twice")
	}
	s.started = true
	s.clk.Arm(&s.tick, (*sourceTicker)(s), s.cfg.Interval, s.cfg.Interval)
}

// sourceTicker is the Source as its ticker's handler: a pointer
// conversion, so arming allocates no callback.
type sourceTicker Source

func (t *sourceTicker) Fire(now int64) { (*Source)(t).step(now) }

// Stop halts event generation.
func (s *Source) Stop() {
	s.tick.Stop()
	s.started = false
}

func (s *Source) step(nowNS int64) {
	now := s.clk.At(nowNS)
	dt := s.cfg.Interval.Seconds()
	for i := range s.chs {
		ch := &s.chs[i]
		if ch.bursting && !now.Before(ch.burstEnd) {
			ch.bursting = false
			ch.nextBurst = now.Add(time.Duration(float64(45*time.Second) * (0.5 + s.rng.Float64())))
		}
		if !ch.bursting && !now.Before(ch.nextBurst) {
			ch.bursting = true
			ch.burstEnd = now.Add(time.Duration(float64(10*time.Second) * (0.5 + s.rng.Float64())))
		}
		rate := ch.baseRate
		if ch.bursting {
			rate = ch.burstRate
		}
		// The previous interval's unsampled events are gone.
		s.lostEvents += float64(ch.pending)
		n := ch.events.Draw(s.rng, rate*dt)
		ch.pending = n
		s.totalEvents += float64(n)
	}
}

// Sample reads and clears channel ch's pending events. It counts
// against the interval budget at the accounting layer (SampleSet).
func (s *Source) Sample(ch int) (int, error) {
	if ch < 0 || ch >= s.cfg.Channels {
		return 0, fmt.Errorf("telemetry: channel %d out of range", ch)
	}
	n := s.chs[ch].pending
	s.chs[ch].pending = 0
	s.observedEvents += float64(n)
	s.samplesTaken++
	return n, nil
}

// SampleSet samples the given channels, enforcing the budget: channels
// beyond the budget are not sampled and the overrun is counted (the
// safety metric a monitoring agent must respect).
func (s *Source) SampleSet(chs []int) (observed int, sampled int) {
	for _, ch := range chs {
		if sampled >= s.cfg.Budget {
			s.overBudget++
			continue
		}
		n, err := s.Sample(ch)
		if err != nil {
			continue
		}
		observed += n
		sampled++
	}
	return observed, sampled
}

// Bursting reports whether channel ch is currently bursting
// (simulation-side ground truth for the evaluation).
func (s *Source) Bursting(ch int) bool { return s.chs[ch].bursting }

// Stats is the source's cumulative accounting.
type Stats struct {
	TotalEvents    float64 // events generated
	ObservedEvents float64 // events harvested by sampling
	LostEvents     float64 // events dropped unobserved
	SamplesTaken   uint64
	OverBudget     uint64 // sample requests refused by the budget
}

// Snapshot returns cumulative counters.
func (s *Source) Snapshot() Stats {
	return Stats{
		TotalEvents:    s.totalEvents,
		ObservedEvents: s.observedEvents,
		LostEvents:     s.lostEvents,
		SamplesTaken:   s.samplesTaken,
		OverBudget:     s.overBudget,
	}
}

// Coverage returns the fraction of generated events that sampling
// observed between two snapshots.
func (st Stats) Coverage(prev Stats) float64 {
	gen := st.TotalEvents - prev.TotalEvents
	if gen <= 0 {
		return 0
	}
	return (st.ObservedEvents - prev.ObservedEvents) / gen
}

// Channels returns the channel count.
func (s *Source) Channels() int { return s.cfg.Channels }
