package memory

import (
	"fmt"
	"sort"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/memsim"
	"sol/internal/spec"
	"sol/internal/stats"
)

// Kind identifies SmartMemory to supervisors that manage
// heterogeneous agents.
const Kind = "memory"

// Agent is a running SmartMemory instance: its Model, Actuator and
// runtime held by value in one heap object. Its embedded runtime makes
// it the core.Handle the kind's spec launch returns, so a holder of that
// handle reaches the fault hooks with one type assertion:
// h.(*memory.Agent).Model.Break(true). The runtime drives &Model and
// &Actuator, so an Agent must not be copied after start.
type Agent struct {
	Model    Model
	Actuator Actuator
	core.Runtime[Tick, Placement]
}

// start builds the Model and Actuator for cfg in one new Agent and runs
// them under the SOL runtime on clk with sched.
func start(clk clock.Clock, mem *memsim.Memory, cfg Config, sched core.Schedule, opts core.Options) (*Agent, error) {
	ag := new(Agent)
	if err := ag.Model.init(mem, cfg); err != nil {
		return nil, err
	}
	ag.Actuator.init(mem, cfg)
	if err := ag.Runtime.Start(clk, &ag.Model, &ag.Actuator, sched, opts); err != nil {
		return nil, err
	}
	return ag, nil
}

// Variant is a named, fully deployable parameterization of
// SmartMemory — the memory kind's spec params.
type Variant = spec.Variant[Config]

// DefaultVariant returns the paper-calibrated baseline variant.
func DefaultVariant() Variant {
	return Variant{Name: "baseline", Config: DefaultConfig(), Schedule: Schedule()}
}

// The memory kind's defaults are the paper calibration. Launching
// requires a tiered-memory substrate in the node environment — the
// substrate belongs to the node, not the agent, which is what lets a
// redeploy (or rollback) hand the successor the same memory state the
// predecessor managed.
func init() {
	spec.Register(Kind, DefaultVariant(), func(env spec.NodeEnv, v Variant) (core.Handle, error) {
		if env.Mem == nil {
			return nil, fmt.Errorf("memory: spec launch needs a tiered-memory substrate in the environment")
		}
		ag, err := start(env.Clock, env.Mem, v.Config, v.Schedule, env.Options)
		if err != nil {
			return nil, err
		}
		return ag, nil
	})
}

// StaticPolicy is the non-learning baseline of Figure 7: it scans every
// region at one fixed interval, classifies regions by the same
// hottest-set rule SmartMemory uses, and applies the placement each
// epoch. It has no safeguards of any kind.
//
// It owns its scan sums and place's ranking scratch: fracs, scans and
// the per-region rates are sized at construction, and the ranked list,
// order.idx, at the first epoch's re-rank, so later ticks and re-ranks
// allocate nothing.
type StaticPolicy struct {
	mem      *memsim.Memory
	clk      clock.Clock
	interval int // scan every interval base ticks
	coverage float64
	epoch    int // ticks per classification epoch

	ticks  int
	fracs  []float64
	scans  []int
	order  rateOrder // order.rates is the per-region rates place ranks by
	rng    stats.RNG
	ticker clock.Timer
}

// NewStaticPolicy returns a baseline scanning every `everyTicks` base
// ticks (1 = the 300 ms maximum rate, 32 = the 9.6 s minimum rate),
// reclassifying with the given coverage target every epochTicks ticks.
func NewStaticPolicy(clk clock.Clock, mem *memsim.Memory, everyTicks int, coverage float64, epochTicks int) *StaticPolicy {
	return &StaticPolicy{
		mem:      mem,
		clk:      clk,
		interval: everyTicks,
		coverage: coverage,
		epoch:    epochTicks,
		fracs:    make([]float64, mem.Regions()),
		scans:    make([]int, mem.Regions()),
		order:    rateOrder{rates: make([]float64, mem.Regions())},
		rng:      *stats.NewRNG(uint64(everyTicks) * 7919),
	}
}

// Start begins the policy's scan/classify loop.
func (s *StaticPolicy) Start() {
	tick := s.mem.Config().BaseTick
	s.clk.Arm(&s.ticker, (*staticTicker)(s), tick, tick)
}

// staticTicker is the StaticPolicy as its ticker's handler: a pointer
// conversion, so arming allocates no callback.
type staticTicker StaticPolicy

func (t *staticTicker) Fire(int64) { (*StaticPolicy)(t).tick() }

// Stop halts the loop.
func (s *StaticPolicy) Stop() { s.ticker.Stop() }

func (s *StaticPolicy) tick() {
	if s.ticks%s.interval == 0 {
		pages := float64(s.mem.PagesPerRegion())
		for r := 0; r < s.mem.Regions(); r++ {
			res, err := s.mem.Scan(r)
			if err != nil {
				continue
			}
			s.fracs[r] += float64(res.SetPages) / pages
			s.scans[r]++
		}
	}
	s.ticks++
	if s.ticks%s.epoch == 0 {
		s.place()
	}
}

// place classifies by observed per-scan hit counts (no saturation
// correction — that is exactly the resolution loss that makes the
// min-frequency baseline fail) and applies the placement.
func (s *StaticPolicy) place() {
	n := s.mem.Regions()
	rates := s.order.rates
	total := 0.0
	for r := 0; r < n; r++ {
		rates[r] = 0
		if s.scans[r] > 0 {
			rates[r] = s.fracs[r] / float64(s.scans[r])
		}
		total += rates[r]
		s.fracs[r] = 0
		s.scans[r] = 0
	}
	// Rank by observed hit counts. Ties — which is what saturation
	// produces — carry no ranking information, so they break randomly:
	// the policy genuinely cannot tell saturated regions apart.
	s.order.idx = s.rng.PermInto(s.order.idx, n)
	sort.Stable(&s.order)
	cum := 0.0
	covered := false
	for _, r := range s.order.idx {
		if covered || total == 0 {
			_ = s.mem.SetTier(r, false)
			continue
		}
		_ = s.mem.SetTier(r, true)
		cum += rates[r]
		if cum >= s.coverage*total {
			covered = true
		}
	}
}

// EpochDuration returns the wall-clock length of one classification
// epoch.
func (s *StaticPolicy) EpochDuration() time.Duration {
	return time.Duration(s.epoch) * s.mem.Config().BaseTick
}
