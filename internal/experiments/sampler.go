package experiments

import (
	"time"

	"sol/internal/agents/sampler"
	"sol/internal/clock"
	"sol/internal/spec"
	"sol/internal/telemetry"
)

// runExtSampler evaluates SmartSampler, the monitoring-agent extension
// the paper motivates in §2 ("online learning algorithms such as
// multi-armed bandits can be used to smartly decide what telemetry to
// sample ... while staying within the collection and logging budget").
// It compares event coverage under a fixed logging budget for the
// learned allocation, a static round-robin sweep, and a static
// fixed-set policy, plus the broken-model safeguard behaviour.
func runExtSampler(s Scale) (*Result, error) {
	r := &Result{}
	warmup := scaled(s, 120*time.Second)
	window := scaled(s, 360*time.Second)

	type policy struct {
		name string
		run  func() (float64, uint64, error) // coverage, overruns
	}

	agentRun := func(breakModel bool) func() (float64, uint64, error) {
		return func() (float64, uint64, error) {
			clk := clock.NewVirtual(epoch)
			src := telemetry.MustNew(clk, telemetry.DefaultConfig())
			src.Start()
			h, err := launch(sampler.Kind, spec.NodeEnv{Clock: clk, Telemetry: src}, sampler.DefaultVariant())
			if err != nil {
				return 0, 0, err
			}
			defer h.Stop()
			clk.RunFor(warmup)
			if breakModel {
				h.(*sampler.Agent).Model.Break(true)
			}
			mark := src.Snapshot()
			clk.RunFor(window)
			end := src.Snapshot()
			return end.Coverage(mark), end.OverBudget, nil
		}
	}

	staticRun := func(rotate bool) func() (float64, uint64, error) {
		return func() (float64, uint64, error) {
			clk := clock.NewVirtual(epoch)
			src := telemetry.MustNew(clk, telemetry.DefaultConfig())
			src.Start()
			off := 0
			set := make([]int, src.Config().Budget)
			ticker := clk.Tick(src.Config().Interval, func() {
				budget := src.Config().Budget
				for i := range set {
					set[i] = (off + i) % src.Channels()
				}
				if rotate {
					off = (off + budget) % src.Channels()
				}
				src.SampleSet(set)
			})
			clk.RunFor(warmup)
			mark := src.Snapshot()
			clk.RunFor(window)
			ticker.Stop()
			end := src.Snapshot()
			return end.Coverage(mark), end.OverBudget, nil
		}
	}

	for _, p := range []policy{
		{"static-fixed-set", staticRun(false)},
		{"static-round-robin", staticRun(true)},
		{"SmartSampler", agentRun(false)},
		{"SmartSampler-broken", agentRun(true)},
	} {
		cov, over, err := p.run()
		if err != nil {
			return nil, err
		}
		r.addf("%-20s event-coverage=%.0f%% budget-overruns=%d", p.name, 100*cov, over)
		r.metric(p.name+"/coverage", cov)
		r.metric(p.name+"/overruns", float64(over))
	}
	return r, nil
}
