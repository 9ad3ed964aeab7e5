package experiments

import (
	"fmt"
	"time"

	"sol/internal/agents/overclock"
	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/faults"
	"sol/internal/node"
	"sol/internal/spec"
	"sol/internal/stats"
	"sol/internal/workload"
)

// ocCores is the VM size used throughout the SmartOverclock
// experiments.
const ocCores = 4

// ocWorkload builds one of the Figure 1 workloads plus its
// performance-metric extractor (higher is better).
type ocWorkload struct {
	name string
	make func(seed uint64) (workload.CPUWorkload, func() float64)
}

func ocWorkloads() []ocWorkload {
	return []ocWorkload{
		{
			name: "Synthetic",
			make: func(seed uint64) (workload.CPUWorkload, func() float64) {
				// 120 core·GHz·s every 100 s: 20 s of processing at
				// nominal frequency, then idle.
				s := workload.NewSynthetic(100*time.Second, 120)
				var skip int
				return s, func() float64 {
					if mt := s.MeanBatchSecondsFrom(skip); mt > 0 {
						skip = s.BatchesDone() // next call measures fresh batches
						return 1 / mt
					}
					return 0
				}
			},
		},
		{
			name: "ObjectStore",
			make: func(seed uint64) (workload.CPUWorkload, func() float64) {
				// Offered load exceeds nominal capacity: overclocking
				// genuinely raises throughput and cuts P99.
				o := workload.NewObjectStore(stats.NewRNG(seed), ocCores, 1.5, 1.4)
				return o, func() float64 {
					if p := o.P99LatencySeconds(); p > 0 {
						return 1 / p
					}
					return 0
				}
			},
		},
		{
			name: "DiskSpeed",
			make: func(seed uint64) (workload.CPUWorkload, func() float64) {
				d := workload.NewDiskSpeed()
				return d, d.Ops
			},
		},
	}
}

// ocRun executes one SmartOverclock (or static) policy run and returns
// (performance metric, average power in model watts).
type ocRun struct {
	clk   *clock.Virtual
	n     *node.Node
	agent *overclock.Agent
	perf  func() float64
	wl    workload.CPUWorkload
}

// newOCRun builds the node and workload; staticLevel < 0 launches the
// agent with cfgMut applied to its default configuration and opts.
func newOCRun(w ocWorkload, seed uint64, staticLevel int, cfgMut func(*overclock.Config), opts core.Options) (*ocRun, error) {
	clk := clock.NewVirtual(epoch)
	n, err := node.New(clk, node.DefaultConfig())
	if err != nil {
		return nil, err
	}
	wl, perf := w.make(seed)
	if _, err := n.AddVM("vm", ocCores, wl); err != nil {
		return nil, err
	}
	n.Start()
	r := &ocRun{clk: clk, n: n, perf: perf, wl: wl}
	if staticLevel >= 0 {
		if err := n.SetFrequencyLevel("vm", staticLevel); err != nil {
			return nil, err
		}
		return r, nil
	}
	v := overclock.DefaultVariant("vm")
	v.Config.Seed = seed
	if cfgMut != nil {
		cfgMut(&v.Config)
	}
	h, err := launch(overclock.Kind, spec.NodeEnv{Clock: clk, Node: n, Options: opts}, v)
	if err != nil {
		return nil, err
	}
	r.agent = h.(*overclock.Agent)
	return r, nil
}

// measure runs warmup then a measurement window, returning performance
// and average power over the window.
func (r *ocRun) measure(warmup, window time.Duration) (perf, watts float64) {
	r.clk.RunFor(warmup)
	r.perf() // reset windowed metrics (e.g. batch-time skip counters)
	e0 := r.n.EnergyJ("vm")
	t0 := r.clk.Now()
	r.clk.RunFor(window)
	watts = (r.n.EnergyJ("vm") - e0) / r.clk.Now().Sub(t0).Seconds()
	perf = r.perf()
	if r.agent != nil {
		r.agent.Stop()
	}
	return perf, watts
}

// runFig1 compares SmartOverclock to static frequency policies on the
// three workloads, reporting performance and power normalized to the
// nominal 1.5 GHz static policy (exactly Figure 1's axes).
func runFig1(s Scale) (*Result, error) {
	r := &Result{}
	warmup := scaled(s, 300*time.Second)
	window := scaled(s, 900*time.Second)
	policies := []struct {
		name  string
		level int
	}{
		{"static-1.5GHz", 0},
		{"static-1.9GHz", 1},
		{"static-2.3GHz", 2},
		{"SmartOverclock", -1},
	}
	for _, w := range ocWorkloads() {
		var basePerf, baseWatts float64
		for _, pol := range policies {
			run, err := newOCRun(w, 11, pol.level, nil, core.Options{})
			if err != nil {
				return nil, err
			}
			perf, watts := run.measure(warmup, window)
			if pol.level == 0 {
				basePerf, baseWatts = perf, watts
			}
			normPerf, normWatts := perf/basePerf, watts/baseWatts
			r.addf("%-12s %-15s perf=%.2fx power=%.2fx", w.name, pol.name, normPerf, normWatts)
			key := fmt.Sprintf("%s/%s", w.name, pol.name)
			r.metric(key+"/perf", normPerf)
			r.metric(key+"/power", normWatts)
		}
	}
	return r, nil
}

// runFig2 injects out-of-range IPS readings at increasing rates and
// compares the agent with and without the data-validation safeguard.
// Performance and power are normalized to the clean (0% bad data) run
// with validation, the paper's "ideal agent decision-making".
func runFig2(s Scale) (*Result, error) {
	r := &Result{}
	warmup := scaled(s, 300*time.Second)
	window := scaled(s, 900*time.Second)
	// A faster Synthetic (20 s period) gives the measurement window
	// enough batches for stable means.
	w := ocWorkload{
		name: "Synthetic-20s",
		make: func(seed uint64) (workload.CPUWorkload, func() float64) {
			syn := workload.NewSynthetic(20*time.Second, 24)
			var skip int
			return syn, func() float64 {
				if mt := syn.MeanBatchSecondsFrom(skip); mt > 0 {
					skip = syn.BatchesDone()
					return 1 / mt
				}
				return 0
			}
		},
	}
	rates := []float64{0, 0.01, 0.05, 0.10, 0.25}

	var idealPerf, idealWatts float64
	for _, validation := range []bool{true, false} {
		for _, p := range rates {
			run, err := newOCRun(w, 11, -1, nil, core.Options{DisableDataValidation: !validation})
			if err != nil {
				return nil, err
			}
			if p > 0 {
				bad := faults.NewBadData(p, run.n.MaxIPS("vm"), 99)
				run.agent.Model.SetCorruptor(func(smp *overclock.Sample) {
					smp.IPS, _ = bad.Corrupt(smp.IPS)
				})
			}
			perf, watts := run.measure(warmup, window)
			if validation && p == 0 {
				idealPerf, idealWatts = perf, watts
			}
			label := "without-validation"
			if validation {
				label = "with-validation"
			}
			normPerf, normWatts := perf/idealPerf, watts/idealWatts
			r.addf("bad-data=%4.0f%% %-19s perf=%.2fx power=%.2fx", p*100, label, normPerf, normWatts)
			key := fmt.Sprintf("%s/%.2f", label, p)
			r.metric(key+"/perf", normPerf)
			r.metric(key+"/power", normWatts)
		}
	}
	return r, nil
}

// runFig3 breaks the model (it always selects the highest frequency)
// and measures the power increase over the healthy agent, with and
// without the model safeguard — the paper's 268%-vs-18% result on the
// disk-bound workload.
func runFig3(s Scale) (*Result, error) {
	r := &Result{}
	warmup := scaled(s, 300*time.Second)
	window := scaled(s, 600*time.Second)
	for _, w := range ocWorkloads() {
		// The actuator safeguard is disabled in every arm: Figure 3
		// isolates the model safeguard, and the α-based actuator
		// safeguard would otherwise rescue the unprotected baseline.
		healthy, err := newOCRun(w, 11, -1, nil, core.Options{DisableActuatorSafeguard: true})
		if err != nil {
			return nil, err
		}
		basePerf, baseWatts := healthy.measure(warmup, window)

		for _, safeguard := range []bool{false, true} {
			run, err := newOCRun(w, 11, -1, nil, core.Options{
				DisableModelSafeguard:    !safeguard,
				DisableActuatorSafeguard: true,
			})
			if err != nil {
				return nil, err
			}
			run.agent.Model.Break(true)
			perf, watts := run.measure(warmup, window)
			label := "without-safeguard"
			if safeguard {
				label = "with-safeguard"
			}
			r.addf("%-12s broken-model %-18s power=%s perf=%.2fx", w.name, label, pct(watts/baseWatts), perf/basePerf)
			r.metric(fmt.Sprintf("%s/%s/power_increase", w.name, label), watts/baseWatts-1)
		}
	}
	return r, nil
}

// runFig4 injects a 30-second model stall exactly when the Synthetic
// workload finishes a batch — the worst moment, since the stale
// prediction says "overclock" while the node idles — and compares the
// blocking actuator to SOL's non-blocking design. Extra power is
// relative to a run without the delay.
func runFig4(s Scale) (*Result, error) {
	r := &Result{}
	warmup := scaled(s, 300*time.Second)
	window := scaled(s, 600*time.Second)
	w := ocWorkloads()[0]

	for _, mode := range []string{"no-delay", "blocking", "non-blocking"} {
		opts := core.Options{Blocking: mode == "blocking"}
		delay := faults.NewDelay()
		if mode != "no-delay" {
			opts.ModelDelay = delay.ModelDelay
		}
		run, err := newOCRun(w, 11, -1, nil, opts)
		if err != nil {
			return nil, err
		}
		if mode != "no-delay" {
			// Arm a 30 s model stall at every busy->idle transition —
			// the worst moment for a stale "overclock" prediction.
			if sw, ok := run.wl.(*workload.Synthetic); ok {
				sw.OnPhase(func(busy bool, at time.Time) {
					if !busy {
						delay.Trigger(30 * time.Second)
					}
				})
			}
		}
		perf, watts := run.measure(warmup, window)
		r.addf("%-13s power=%.3f model-watts perf=%.3f", mode, watts, perf)
		r.metric(mode+"/power", watts)
		r.metric(mode+"/perf", perf)
	}
	base := r.Metrics["no-delay/power"]
	r.addf("extra power: blocking=%s non-blocking=%s",
		pct(r.Metrics["blocking/power"]/base), pct(r.Metrics["non-blocking/power"]/base))
	r.metric("blocking/extra_power", r.Metrics["blocking/power"]/base-1)
	r.metric("non-blocking/extra_power", r.Metrics["non-blocking/power"]/base-1)
	return r, nil
}

// runFig5 runs the Synthetic workload with multi-minute idle phases and
// shows that the actuator safeguard (P90 of α over 100 s) disables
// overclocking during idle and re-enables it when activity returns.
func runFig5(s Scale) (*Result, error) {
	r := &Result{}
	// 10-minute period, 3 minutes of processing: long transient idle.
	build := func(disableSafeguard bool) (*ocRun, *workload.Synthetic, error) {
		clk := clock.NewVirtual(epoch)
		n, err := node.New(clk, node.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		syn := workload.NewSynthetic(600*time.Second, 1080) // 180 s at nominal
		if _, err := n.AddVM("vm", ocCores, syn); err != nil {
			return nil, nil, err
		}
		n.Start()
		h, err := launch(overclock.Kind, spec.NodeEnv{Clock: clk, Node: n,
			Options: core.Options{DisableActuatorSafeguard: disableSafeguard}}, overclock.DefaultVariant("vm"))
		if err != nil {
			return nil, nil, err
		}
		return &ocRun{clk: clk, n: n, agent: h.(*overclock.Agent)}, syn, nil
	}

	window := scaled(s, 3600*time.Second)
	for _, safeguard := range []bool{false, true} {
		run, syn, err := build(!safeguard)
		if err != nil {
			return nil, err
		}
		// Track idle-phase energy and overclocked residency, plus halt
		// activity.
		var idleEnergy, idleSeconds float64
		var overclockedIdle, idleSamples float64
		lastE := run.n.EnergyJ("vm")
		lastT := run.clk.Now()
		sample := func() {
			e, t := run.n.EnergyJ("vm"), run.clk.Now()
			if !syn.Busy() {
				idleEnergy += e - lastE
				idleSeconds += t.Sub(lastT).Seconds()
				idleSamples++
				if run.n.FrequencyLevel("vm") > 0 {
					overclockedIdle++
				}
			}
			lastE, lastT = e, t
		}
		ticker := run.clk.Tick(time.Second, sample)
		run.clk.RunFor(window)
		ticker.Stop()
		run.agent.Stop()

		label := "without-safeguard"
		if safeguard {
			label = "with-safeguard"
		}
		idleWatts := idleEnergy / idleSeconds
		ocFrac := overclockedIdle / idleSamples
		r.addf("%-18s idle-power=%.2f model-watts idle-overclocked=%.1f%% halts=%d",
			label, idleWatts, 100*ocFrac, run.agent.Stats().Mitigations)
		r.metric(label+"/idle_power", idleWatts)
		r.metric(label+"/idle_overclocked_frac", ocFrac)
		r.metric(label+"/mitigations", float64(run.agent.Stats().Mitigations))
	}
	r.addf("idle power saved by safeguard: %s",
		pct(r.Metrics["with-safeguard/idle_power"]/r.Metrics["without-safeguard/idle_power"]))
	return r, nil
}

// runAblationEpsilon sweeps SmartOverclock's exploration rate on the
// Synthetic workload — the design-choice ablation for the 90%/10%
// exploit/explore split.
func runAblationEpsilon(s Scale) (*Result, error) {
	r := &Result{}
	warmup := scaled(s, 300*time.Second)
	window := scaled(s, 600*time.Second)
	w := ocWorkloads()[0]
	var base float64
	for _, eps := range []float64{0, 0.05, 0.10, 0.20, 0.40} {
		run, err := newOCRun(w, 11, -1, func(c *overclock.Config) { c.ExploreRate = eps }, core.Options{})
		if err != nil {
			return nil, err
		}
		perf, watts := run.measure(warmup, window)
		if base == 0 {
			base = perf
		}
		r.addf("epsilon=%.2f perf=%.2fx power=%.2f model-watts", eps, perf/base, watts)
		r.metric(fmt.Sprintf("eps=%.2f/perf", eps), perf/base)
		r.metric(fmt.Sprintf("eps=%.2f/power", eps), watts)
	}
	return r, nil
}
