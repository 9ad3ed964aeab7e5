package experiments

import (
	"fmt"
	"time"

	"sol/internal/agents/harvest"
	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/faults"
	"sol/internal/node"
	"sol/internal/spec"
	"sol/internal/stats"
	"sol/internal/workload"
)

// hvCores is the primary VM size in the SmartHarvest experiments.
const hvCores = 8

// hvRig is one SmartHarvest run: a primary latency-critical VM, an
// elastic VM receiving loans, and optionally the agent.
type hvRig struct {
	clk     *clock.Virtual
	n       *node.Node
	primary *workload.TailBench
	elastic *workload.Elastic
	agent   *harvest.Agent
}

// newHVRig builds the node. withAgent=false gives the no-harvest
// baseline. Each Figure 6 sub-experiment isolates one safeguard, so the
// actuator safeguard (the cross-cutting last line of defense) is
// disabled via cfgMut/opts where the paper isolates a different one.
func newHVRig(wl string, seed uint64, withAgent bool, cfgMut func(*harvest.Config), opts core.Options) (*hvRig, error) {
	clk := clock.NewVirtual(epoch)
	ncfg := node.DefaultConfig()
	ncfg.TickInterval = 50 * time.Microsecond
	n, err := node.New(clk, ncfg)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	var tb *workload.TailBench
	switch wl {
	case "image-dnn":
		tb = workload.NewImageDNN(rng, hvCores, 1.5)
	case "moses":
		tb = workload.NewMoses(rng, hvCores, 1.5)
	default:
		return nil, fmt.Errorf("unknown tailbench workload %q", wl)
	}
	if _, err := n.AddVM("primary", hvCores, tb); err != nil {
		return nil, err
	}
	el := workload.NewElastic()
	if _, err := n.AddVM("elastic", hvCores, el); err != nil {
		return nil, err
	}
	n.SetAvailableCores("elastic", 0)
	n.Start()
	rig := &hvRig{clk: clk, n: n, primary: tb, elastic: el}
	if !withAgent {
		return rig, nil
	}
	v := harvest.DefaultVariant("primary", "elastic")
	v.Config.Seed = seed
	if cfgMut != nil {
		cfgMut(&v.Config)
	}
	h, err := launch(harvest.Kind, spec.NodeEnv{Clock: clk, Node: n, Options: opts}, v)
	if err != nil {
		return nil, err
	}
	rig.agent = h.(*harvest.Agent)
	return rig, nil
}

func (r *hvRig) finish() (p99ms, harvested float64) {
	p99ms = r.primary.P99LatencySeconds() * 1000
	harvested = r.elastic.CoreSeconds()
	if r.agent != nil {
		r.agent.Stop()
	}
	return p99ms, harvested
}

// disableActuatorGuard pushes the vCPU-wait safeguard out of the way so
// the sub-experiment isolates the safeguard under study.
func disableActuatorGuard(c *harvest.Config) { c.WaitP99ThresholdMs = 1e9 }

// hvBaseline runs the no-harvest baseline and returns its P99 (ms).
func hvBaseline(wl string, seed uint64, dur time.Duration) (float64, error) {
	rig, err := newHVRig(wl, seed, false, nil, core.Options{})
	if err != nil {
		return 0, err
	}
	rig.clk.RunFor(dur)
	p99, _ := rig.finish()
	return p99, nil
}

// runFig6Data reproduces Figure 6 (left): the full-utilization data
// discard prevents censored samples from teaching the model to
// under-predict. Without validation the self-sealing bias starves the
// primary VM; with it, P99 impact stays small.
func runFig6Data(s Scale) (*Result, error) {
	r := &Result{}
	dur := scaled(s, 120*time.Second)
	for _, wl := range []string{"image-dnn", "moses"} {
		base, err := hvBaseline(wl, 11, dur)
		if err != nil {
			return nil, err
		}
		for _, validation := range []bool{false, true} {
			rig, err := newHVRig(wl, 11, true, disableActuatorGuard, core.Options{
				DisableDataValidation: !validation,
				DisableModelSafeguard: true, // isolate the validation safeguard
			})
			if err != nil {
				return nil, err
			}
			rig.clk.RunFor(dur)
			p99, harvested := rig.finish()
			label := "without-validation"
			if validation {
				label = "with-validation"
			}
			r.addf("%-10s %-19s P99=%s harvested=%.0f core-s", wl, label, pct(p99/base), harvested)
			r.metric(fmt.Sprintf("%s/%s/p99_increase", wl, label), p99/base-1)
		}
	}
	return r, nil
}

// runFig6Model reproduces Figure 6 (middle): a broken model predicts
// zero core demand; the model-assessment safeguard detects the
// systematic under-prediction and switches to safe defaults.
func runFig6Model(s Scale) (*Result, error) {
	r := &Result{}
	dur := scaled(s, 120*time.Second)
	lead := scaled(s, 15*time.Second)
	for _, wl := range []string{"image-dnn", "moses"} {
		base, err := hvBaseline(wl, 11, dur)
		if err != nil {
			return nil, err
		}
		for _, safeguard := range []bool{false, true} {
			rig, err := newHVRig(wl, 11, true, disableActuatorGuard, core.Options{
				DisableModelSafeguard: !safeguard,
			})
			if err != nil {
				return nil, err
			}
			rig.clk.RunFor(lead)
			rig.agent.Model.Break(true)
			rig.clk.RunFor(dur - lead)
			p99, harvested := rig.finish()
			label := "without-safeguard"
			if safeguard {
				label = "with-safeguard"
			}
			r.addf("%-10s broken-model %-18s P99=%s harvested=%.0f core-s", wl, label, pct(p99/base), harvested)
			r.metric(fmt.Sprintf("%s/%s/p99_increase", wl, label), p99/base-1)
		}
	}
	return r, nil
}

// runFig6Delay reproduces Figure 6 (right): a 1-second model stall
// injected exactly when the primary VM's load surges. The blocking
// actuator sits on its stale low grant; SOL's non-blocking actuator
// hits its 100 ms deadline and returns every core.
func runFig6Delay(s Scale) (*Result, error) {
	r := &Result{}
	dur := scaled(s, 120*time.Second)
	for _, wl := range []string{"image-dnn", "moses"} {
		base, err := hvBaseline(wl, 11, dur)
		if err != nil {
			return nil, err
		}
		for _, blocking := range []bool{true, false} {
			delay := faults.NewDelay()
			rig, err := newHVRig(wl, 11, true, disableActuatorGuard, core.Options{
				Blocking:              blocking,
				ModelDelay:            delay.ModelDelay,
				DisableModelSafeguard: true, // isolate the non-blocking design
			})
			if err != nil {
				return nil, err
			}
			rig.primary.OnSurge(func(at time.Time, util float64) {
				delay.Trigger(time.Second)
			})
			rig.clk.RunFor(dur)
			p99, harvested := rig.finish()
			label := "non-blocking"
			if blocking {
				label = "blocking"
			}
			r.addf("%-10s 1s-delay-at-surge %-13s P99=%s harvested=%.0f core-s delays=%d",
				wl, label, pct(p99/base), harvested, delay.Fired())
			r.metric(fmt.Sprintf("%s/%s/p99_increase", wl, label), p99/base-1)
		}
	}
	return r, nil
}

// runAblationQueue sweeps the SOL prediction-queue capacity to show the
// design point: capacity 1 drops predictions under bursts, while large
// queues only add staleness (the actuator consumes the freshest entry
// anyway).
func runAblationQueue(s Scale) (*Result, error) {
	r := &Result{}
	dur := scaled(s, 90*time.Second)
	for _, capQ := range []int{1, 4, 16} {
		rig, err := newHVRig("moses", 11, false, nil, core.Options{})
		if err != nil {
			return nil, err
		}
		v := harvest.DefaultVariant("primary", "elastic")
		v.Schedule.QueueCapacity = capQ
		ag, err := launch(harvest.Kind, spec.NodeEnv{Clock: rig.clk, Node: rig.n}, v)
		if err != nil {
			return nil, err
		}
		rig.clk.RunFor(dur)
		st := ag.Stats()
		ag.Stop()
		p99 := rig.primary.P99LatencySeconds() * 1000
		r.addf("queue-capacity=%2d P99=%.1fms dropped=%d expired=%d actions=%d",
			capQ, p99, st.PredictionsDropped, st.PredictionsExpired, st.Actions)
		r.metric(fmt.Sprintf("cap=%d/p99_ms", capQ), p99)
		r.metric(fmt.Sprintf("cap=%d/dropped", capQ), float64(st.PredictionsDropped))
	}
	return r, nil
}
