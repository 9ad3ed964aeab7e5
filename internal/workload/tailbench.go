package workload

import (
	"time"

	"sol/internal/stats"
)

// TailBench models a latency-critical interactive workload in the style
// of the TailBench suite used to evaluate SmartHarvest: a request
// server whose offered load alternates between phases of different
// intensity. The phase structure is what makes core harvesting both
// attractive (low phases leave cores idle) and risky (demand surges
// need the cores back within milliseconds).
//
// A TailBench holds its request server, whose FIFO is sized at build,
// and its two phases inline. It must not be copied: a copy would share
// the server's FIFO and sojourn table.
type TailBench struct {
	name  string
	q     queueServer
	rng   *stats.RNG
	cores int
	nomF  float64
	ipc   float64
	stall float64

	phases   [2]Phase
	cur      int
	phaseEnd int64 // ns on the node clock's timebase
	started  bool
	onSurge  []func(at time.Time, util float64)
}

// Phase is one offered-load regime.
type Phase struct {
	// Util is the target CPU utilization as a fraction of allocated
	// cores at nominal frequency.
	Util float64
	// MeanDuration is the average phase length; actual lengths are
	// exponentially distributed around it (min 10% of mean).
	MeanDuration time.Duration
}

// NewImageDNN returns the image-recognition workload: long requests,
// moderate load swings between a low and a high phase.
func NewImageDNN(rng *stats.RNG, cores int, nominalGHz float64) *TailBench {
	return &TailBench{
		name: "image-dnn", rng: rng, cores: cores, nomF: nominalGHz,
		ipc: 1.4, stall: 0.25,
		q: newQueueServer(rng, 0.020, cores), // ~13 ms of single-core work at 1.5 GHz
		phases: [2]Phase{
			{Util: 0.20, MeanDuration: 700 * time.Millisecond},
			{Util: 0.85, MeanDuration: 400 * time.Millisecond},
		},
	}
}

// NewMoses returns the language-translation workload: shorter requests
// and spikier load than image-dnn.
func NewMoses(rng *stats.RNG, cores int, nominalGHz float64) *TailBench {
	return &TailBench{
		name: "moses", rng: rng, cores: cores, nomF: nominalGHz,
		ipc: 1.2, stall: 0.30,
		q: newQueueServer(rng, 0.008, cores), // ~5 ms of single-core work at 1.5 GHz
		phases: [2]Phase{
			{Util: 0.15, MeanDuration: 400 * time.Millisecond},
			{Util: 0.80, MeanDuration: 250 * time.Millisecond},
		},
	}
}

// Name implements CPUWorkload.
func (t *TailBench) Name() string { return t.name }

// OnSurge registers a callback fired whenever the workload enters a
// higher-utilization phase. The Figure 6 delayed-prediction experiment
// injects its model delay from this hook — the worst possible moment.
func (t *TailBench) OnSurge(f func(at time.Time, util float64)) {
	t.onSurge = append(t.onSurge, f)
}

// Tick implements CPUWorkload.
func (t *TailBench) Tick(s Step, res Resources) Usage {
	if !t.started {
		t.started = true
		t.phaseEnd = s.Now + int64(t.phaseDuration())
	}
	if s.Now >= t.phaseEnd {
		prev := t.phases[t.cur].Util
		t.cur = (t.cur + 1) % len(t.phases)
		t.phaseEnd = s.Now + int64(t.phaseDuration())
		if t.phases[t.cur].Util > prev && len(t.onSurge) > 0 {
			at := s.Clock.At(s.Now)
			for _, f := range t.onSurge {
				f(at, t.phases[t.cur].Util)
			}
		}
	}
	ph := t.phases[t.cur]
	rate := ph.Util * float64(t.cores) * t.nomF / t.q.meanDemand
	u := t.q.step(s, res, rate)
	u.IPC = t.ipc
	u.StallFrac = t.stall
	return u
}

func (t *TailBench) phaseDuration() time.Duration {
	mean := t.phases[t.cur].MeanDuration
	d := time.Duration(float64(mean) * t.rng.ExpFloat64())
	if min := mean / 10; d < min {
		d = min
	}
	return d
}

// P99LatencySeconds returns the 99th-percentile request latency.
func (t *TailBench) P99LatencySeconds() float64 { return t.q.p99() }

// MeanLatencySeconds returns the mean request latency.
func (t *TailBench) MeanLatencySeconds() float64 { return t.q.meanLatency() }

// Served returns the number of completed requests.
func (t *TailBench) Served() uint64 { return t.q.served }
