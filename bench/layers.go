package main

import (
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sol/internal/clock"
	"sol/internal/controlplane"
	"sol/internal/core"
	"sol/internal/experiments"
	"sol/internal/fleet"
	"sol/internal/memsim"
	"sol/internal/ml/bandit"
	"sol/internal/ml/linear"
	"sol/internal/ml/qlearn"
	"sol/internal/shard"
	"sol/internal/spec"
	"sol/internal/stats"
)

// The layer ladder prices each layer from outside, by timing calls
// into its public functions. Nothing here is gated: the numbers exist
// so that a change in an end-to-end metric can be attributed (README
// has the metric → layer → end-to-end table). Every timing is the
// fastest of a few repeats, for the reason time_s is a fastest-quarter
// mean.

// manifestJSON mirrors examples/rollout/manifest.json; the benchmark
// carries its own copy so its inputs live under bench/.
//
//go:embed manifest.json
var manifestJSON []byte

// ladder accumulates per-layer metrics; the first error sticks and
// fails the traced pass.
type ladder struct {
	seed    uint64
	tmpDir  string
	metrics map[string]metric
	err     error
}

// set records a metric under the unit perLayer declares for it; a name
// the table does not know is a bug in this file.
func (l *ladder) set(name string, v float64) {
	unit, ok := unitOf(perLayer, name)
	if !ok {
		panic("bench: per-layer metric " + name + " is not declared in metrics.go")
	}
	l.metrics[name] = metric{Value: v, Unit: unit}
}

func (l *ladder) fail(err error) {
	if l.err == nil && err != nil {
		l.err = err
	}
}

// keepFastest lowers *best to d; a zero *best is "none yet".
func keepFastest(best *time.Duration, d time.Duration) {
	if *best == 0 || d < *best {
		*best = d
	}
}

// bestOf returns the fastest of reps runs of fn, each started from a
// collected heap so that no run pays for its predecessor's garbage.
func bestOf(reps int, fn func()) time.Duration {
	var best time.Duration
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		fn()
		keepFastest(&best, time.Since(t0))
	}
	return best
}

// nsPerOp is the fastest-of-reps cost of one of n identical ops.
func nsPerOp(reps, n int, op func()) float64 {
	d := bestOf(reps, func() {
		for i := 0; i < n; i++ {
			op()
		}
	})
	return float64(d.Nanoseconds()) / float64(n)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runLadder measures every layer. tmpDir holds the journal files.
func runLadder(seed uint64, tmpDir string) (map[string]metric, error) {
	l := &ladder{seed: seed, tmpDir: tmpDir, metrics: make(map[string]metric)}
	for _, step := range []func(){
		l.clockLayer, l.coreLayer, l.nodeLayers, l.mlLayer, l.fleetLayer,
		l.shardLayer, l.controlplaneLayer, l.experimentsLayer,
	} {
		step()
		if l.err != nil {
			return nil, l.err
		}
	}
	return l.metrics, nil
}

func (l *ladder) clockLayer() {
	const n = 200_000
	start := time.Unix(0, 0)

	clk := clock.NewVirtualSingle(start)
	clk.Tick(time.Millisecond, func() {})
	l.set("clock.step_ns", nsPerOp(5, n, func() { clk.Step() }))
	m0 := mallocs()
	for i := 0; i < n; i++ {
		clk.Step()
	}
	l.set("clock.allocs_per_event", float64(mallocs()-m0)/n)

	// 32 tickers on coprime-ish periods: the heap depth of a standard
	// node's clock, where one ticker measures only the root.
	deep := clock.NewVirtualSingle(start)
	for i := 0; i < 32; i++ {
		deep.Tick(time.Millisecond+time.Duration(i)*37*time.Microsecond, func() {})
	}
	l.set("clock.step_ns_32timers", nsPerOp(5, n, func() { deep.Step() }))

	one := clock.NewVirtualSingle(start)
	var tick func()
	tick = func() { one.AfterFunc(time.Millisecond, tick) }
	one.AfterFunc(time.Millisecond, tick)
	l.set("clock.afterfunc_ns", nsPerOp(5, n, func() { one.Step() }))

	// A slice with nothing due: what every free-running node pays per
	// conductor epoch it is visited in.
	idle := clock.NewVirtualSingle(start)
	for i := 0; i < 32; i++ {
		idle.AfterFunc(1000*time.Hour, func() {})
	}
	l.set("clock.runfor_empty_ns", nsPerOp(5, n, func() { idle.RunFor(2 * time.Millisecond) }))
}

type nopModel struct{ clk clock.Clock }

func (m *nopModel) CollectData() (int, error) { return 1, nil }
func (m *nopModel) ValidateData(int) error    { return nil }
func (m *nopModel) CommitData(time.Time, int) {}
func (m *nopModel) UpdateModel()              {}
func (m *nopModel) Predict() (core.Prediction[int], error) {
	return core.Prediction[int]{Value: 1, Expires: m.clk.Now().Add(time.Second)}, nil
}
func (m *nopModel) DefaultPredict() core.Prediction[int] { return core.Prediction[int]{} }
func (m *nopModel) AssessModel() bool                    { return true }

type nopActuator struct{}

func (nopActuator) TakeAction(*core.Prediction[int]) {}
func (nopActuator) AssessPerformance() bool          { return true }
func (nopActuator) Mitigate()                        {}
func (nopActuator) CleanUp()                         {}

var nopSchedule = core.Schedule{
	DataPerEpoch:           10,
	DataCollectInterval:    100 * time.Millisecond,
	MaxEpochTime:           1500 * time.Millisecond,
	AssessModelEvery:       1,
	MaxActuationDelay:      5 * time.Second,
	AssessActuatorInterval: time.Second,
}

func (l *ladder) coreLayer() {
	const epochs = 20_000
	clk := clock.NewVirtualSingle(time.Unix(0, 0))
	rt, err := core.Run[int, int](clk, &nopModel{clk: clk}, nopActuator{}, nopSchedule, core.Options{})
	if err != nil {
		l.fail(err)
		return
	}
	clk.RunFor(time.Second) // first epoch warms the prediction queue
	f0, m0 := clk.Fired(), mallocs()
	clk.RunFor(epochs * time.Second)
	l.set("core.epoch_events", float64(clk.Fired()-f0)/epochs)
	l.set("core.epoch_allocs", float64(mallocs()-m0)/epochs)
	l.set("core.epoch_ns", nsPerOp(3, epochs, func() { clk.RunFor(time.Second) }))
	rt.Stop()

	// Launch alone: Stop runs outside the timed stretch.
	const launches = 2000
	var best time.Duration
	for rep := 0; rep < 3; rep++ {
		var sum time.Duration
		for i := 0; i < launches; i++ {
			t0 := time.Now()
			rt, err := core.Run[int, int](clk, &nopModel{clk: clk}, nopActuator{}, nopSchedule, core.Options{})
			sum += time.Since(t0)
			if err != nil {
				l.fail(err)
				return
			}
			rt.Stop()
		}
		keepFastest(&best, sum)
	}
	l.set("core.launch_us", float64(best.Microseconds())/launches)
}

// flatTrace is a fixed skewed access pattern for pricing memsim alone.
type flatTrace int

func (t flatTrace) Name() string { return "bench-flat" }
func (t flatTrace) Regions() int { return int(t) }
func (t flatTrace) Rates(_ time.Time, out []float64) {
	for r := range out {
		out[r] = 5000 / float64(r+1)
	}
}

// kindNode runs a small fleet of StandardNodes carrying exactly kinds
// and returns host microseconds and events per simulated node-second.
func (l *ladder) kindNode(kinds []string) (us, events float64) {
	const nodes, horizon = 8, 5 * time.Second
	cfg := fleet.Config{
		Nodes: nodes, Duration: horizon, Workers: 1,
		Setup: fleet.StandardNode(fleet.StandardNodeConfig{Seed: l.seed, Kinds: kinds}),
	}
	var rep *fleet.Report
	d := bestOf(3, func() {
		r, err := fleet.Run(cfg)
		l.fail(err)
		rep = r
	})
	if l.err != nil {
		return 0, 0
	}
	nodeSeconds := nodes * horizon.Seconds()
	return float64(d.Microseconds()) / nodeSeconds, float64(rep.Events) / nodeSeconds
}

func (l *ladder) nodeLayers() {
	// Kinds must be empty, not nil: nil means the standard three.
	bareUS, bareEvents := l.kindNode([]string{})
	l.set("node.us_per_node_s", bareUS)
	l.set("node.events_per_node_s", bareEvents)
	for _, kind := range fleet.AllKinds {
		us, events := l.kindNode([]string{kind})
		l.set("agents."+kind+".us_per_node_s", us-bareUS)
		l.set("agents."+kind+".events_per_node_s", events-bareEvents)
	}

	const simSeconds = 600
	d := bestOf(3, func() {
		clk := clock.NewVirtualSingle(time.Unix(0, 0))
		mem, err := memsim.New(clk, memsim.DefaultConfig(128), flatTrace(128))
		if err != nil {
			l.fail(err)
			return
		}
		mem.Start()
		clk.RunFor(simSeconds * time.Second)
		mem.Stop()
	})
	l.set("memsim.us_per_sim_s", float64(d.Microseconds())/simSeconds)
}

func (l *ladder) mlLayer() {
	const n = 200_000
	w := stats.NewWindow(100)
	rng := stats.NewRNG(l.seed)
	for i := 0; i < 100; i++ {
		w.Add(rng.Float64())
	}
	l.set("stats.window_p99_ns", nsPerOp(3, n, func() {
		w.Add(rng.Float64())
		_ = w.Percentile(99)
	}))

	q, err := qlearn.New(qlearn.Config{States: 10, Actions: 3, Alpha: 0.4, Gamma: 0.3, Epsilon: 0.1, RandSeed: l.seed})
	if err != nil {
		l.fail(err)
		return
	}
	i := 0
	l.set("ml.qlearn_step_ns", nsPerOp(3, n, func() {
		a, _ := q.SelectAction(i % 10)
		q.Update(i%10, a, 0.5, (i+1)%10)
		i++
	}))

	cls, err := linear.NewCostSensitive(9, 6, 0.05)
	if err != nil {
		l.fail(err)
		return
	}
	x := []float64{0.2, 0.4, 0.35, 0.1, 0.3, 0.02}
	costs := linear.AsymmetricCosts(9, 4, 8, 1)
	l.set("ml.linear_update_ns", nsPerOp(3, n, func() {
		cls.Update(x, costs)
		_ = cls.Predict(x)
	}))

	th, err := bandit.New(6, stats.NewRNG(l.seed))
	if err != nil {
		l.fail(err)
		return
	}
	l.set("ml.bandit_select_ns", nsPerOp(3, n, func() {
		arm := th.Select()
		th.Reward(arm, i%3 == 0)
		i++
	}))
}

func (l *ladder) fleetLayer() {
	std := fleet.StandardNode(fleet.StandardNodeConfig{Seed: l.seed})

	one := fleet.Config{Nodes: 1, Duration: 10 * time.Second, Workers: 1, Setup: std}
	var events uint64
	d := bestOf(5, func() {
		rep, err := fleet.Run(one)
		if err != nil {
			l.fail(err)
			return
		}
		events = rep.Events
	})
	if l.err != nil {
		return
	}
	l.set("fleet.supervisor_ns_per_event", float64(d.Nanoseconds())/float64(events))

	// One resident fleet prices build, footprint, poll, redeploy,
	// report and teardown.
	const nodes = 400
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0, m0 := ms.HeapAlloc, ms.Mallocs
	t0 := time.Now()
	co, err := fleet.NewCoordinator(fleet.Config{Nodes: nodes, Duration: time.Second, Shards: 4, Workers: 1, Setup: std})
	build := time.Since(t0)
	if err != nil {
		l.fail(err)
		return
	}
	runtime.ReadMemStats(&ms)
	l.set("fleet.build_us_per_node", float64(build.Microseconds())/nodes)
	l.set("fleet.build_allocs_per_node", float64(ms.Mallocs-m0)/nodes)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	l.set("fleet.live_kb_per_node", float64(ms.HeapAlloc-heap0)/1024/nodes)

	co.StepFor(10 * time.Millisecond)
	var scratch []fleet.MemberHealth
	members := 0
	d = bestOf(5, func() {
		members = 0
		for idx := 0; idx < nodes; idx++ {
			scratch = co.Supervisor(idx).HealthDetailInto(scratch)
			members += len(scratch)
		}
	})
	l.set("fleet.health_poll_ns", float64(d.Nanoseconds())/float64(members))

	t0 = time.Now()
	for idx := 0; idx < nodes; idx++ {
		if err := co.Supervisor(idx).ReplaceSpec("harvest", spec.Agent{Kind: "harvest"}); err != nil {
			l.fail(err)
			break
		}
	}
	l.set("fleet.replace_us", float64(time.Since(t0).Microseconds())/nodes)

	d = bestOf(3, func() { _ = co.Report() })
	l.set("fleet.report_ms", d.Seconds()*1e3)
	t0 = time.Now()
	co.StopAll()
	l.set("fleet.stopall_ms", time.Since(t0).Seconds()*1e3)
	if l.err != nil {
		return
	}

	// Driver parity, interleaved so both sides share the noise.
	cfg := fleet.Config{Nodes: 32, Duration: 5 * time.Second, Workers: 1, Setup: std}
	var batch, stepped time.Duration
	for i := 0; i < 3; i++ {
		keepFastest(&batch, bestOf(1, func() { _, err := fleet.Run(cfg); l.fail(err) }))
		keepFastest(&stepped, bestOf(1, func() { _, err := fleet.RunStepped(cfg, time.Second, nil); l.fail(err) }))
	}
	l.set("fleet.stepped_over_batch", stepped.Seconds()/batch.Seconds())
}

// canaryTwin runs the canary_2k shape once with the given switches and
// returns the report plus the host time of the whole run and of its
// Span call.
func (l *ladder) canaryTwin(workers int, profile, trace bool) (rep *fleet.Report, total, span time.Duration) {
	var err error
	cfg := canaryFull.config(l.seed)
	cfg.Workers, cfg.Profile, cfg.Trace = workers, profile, trace
	tr := newTracer()
	total = bestOf(1, func() { rep, err = runCanary(cfg, canaryFull, tr, 0) })
	l.fail(err)
	for _, s := range tr.spans {
		if s.Name == "Coordinator.Span" {
			span = time.Duration(s.End - s.Start)
		}
	}
	return rep, total, span
}

func (l *ladder) shardLayer() {
	const cells, epochs = 16, 20_000
	con, err := shard.New(shard.Config{Cells: cells, Shards: cells, Workers: 1, Advance: func(int, time.Duration) {}})
	if err != nil {
		l.fail(err)
		return
	}
	own := make([][]int, cells)
	for s := range own {
		own[s] = []int{s}
	}
	t0 := time.Now()
	err = con.Run(shard.Span{
		Until: epochs * time.Millisecond, Interval: time.Millisecond,
		Stepped: func(s int) []int { return own[s] },
		OnEpoch: func(int, int, time.Duration, time.Duration) {},
	})
	l.set("shard.empty_epoch_ns", float64(time.Since(t0).Nanoseconds())/(cells*epochs))
	if err != nil {
		l.fail(err)
		return
	}

	// Plain / profiled / traced twins of canary_2k, interleaved.
	var plain, plainSpan, profiled, traced time.Duration
	var profRep, traceRep *fleet.Report
	for i := 0; i < 3; i++ {
		_, t, sp := l.canaryTwin(1, false, false)
		keepFastest(&plain, t)
		keepFastest(&plainSpan, sp)
		profRep, t, _ = l.canaryTwin(1, true, false)
		keepFastest(&profiled, t)
		traceRep, t, _ = l.canaryTwin(1, false, true)
		keepFastest(&traced, t)
		if l.err != nil {
			return
		}
	}
	l.set("shard.span_ms", plainSpan.Seconds()*1e3)
	l.set("obs.profile_overhead_frac", profiled.Seconds()/plain.Seconds()-1)
	l.set("obs.trace_overhead_frac", traced.Seconds()/plain.Seconds()-1)

	if profRep.Profile == nil || traceRep.Trace == nil {
		l.fail(fmt.Errorf("canary twins: profile or trace missing from the report"))
		return
	}
	tot := profRep.Profile.Totals()
	wall := float64(tot.WallNS())
	l.set("shard.step_frac", float64(tot.StepNS)/wall)
	l.set("shard.free_frac", float64(tot.FreeNS)/wall)
	l.set("shard.align_frac", float64(tot.AlignNS)/wall)
	l.set("shard.wait_frac", float64(tot.BarrierNS)/wall)
	l.set("shard.epochs", float64(tot.Counts.Epochs))
	l.set("shard.stepped_advances", float64(tot.Counts.SteppedAdvances))
	l.set("shard.free_advances", float64(tot.Counts.FreeAdvances))

	l.set("obs.trace_events", float64(len(traceRep.Trace.Events)))
	l.set("obs.trace_drops", float64(traceRep.Trace.Dropped))
	d := bestOf(3, func() { _, err := traceRep.Trace.Chrome(); l.fail(err) })
	l.set("obs.chrome_export_ms", d.Seconds()*1e3)

	// Diagnostic only: this box cannot resolve parallel speed-up (README).
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	_, wide, _ := l.canaryTwin(0, false, false)
	runtime.GOMAXPROCS(prev)
	l.set("shard.parallel_speedup", plain.Seconds()/wide.Seconds())
}

func (l *ladder) controlplaneLayer() {
	classic, err := rolloutConfig(controlplane.ScenarioHealthy, 9, rolloutInterval, 0, l.seed)
	if err != nil {
		l.fail(err)
		return
	}
	plainCfg := classic
	plainCfg.Campaign = nil
	sharded1, err := rolloutConfig(controlplane.ScenarioHealthy, 9, rolloutInterval, 1, l.seed)
	if err != nil {
		l.fail(err)
		return
	}

	var tClassic, tPlain, tSharded time.Duration
	var repClassic, repSharded *controlplane.Report
	run := func(cfg controlplane.Config, best *time.Duration) *controlplane.Report {
		var rep *controlplane.Report
		var err error
		keepFastest(best, bestOf(1, func() { rep, err = controlplane.Run(cfg) }))
		l.fail(err)
		return rep
	}
	for i := 0; i < 3; i++ {
		repClassic = run(classic, &tClassic)
		run(plainCfg, &tPlain)
		repSharded = run(sharded1, &tSharded)
		if l.err != nil {
			return
		}
	}
	if repClassic.String() != repSharded.String() {
		l.fail(fmt.Errorf("classic engine and sharded engine at S=1 render different reports"))
		return
	}
	l.set("controlplane.campaign_over_plain", tClassic.Seconds()/tPlain.Seconds())
	l.set("controlplane.classic_over_sharded1", tClassic.Seconds()/tSharded.Seconds())
	l.set("controlplane.decisions", float64(len(repClassic.Trace)))

	const parses = 200
	l.set("controlplane.manifest_us", nsPerOp(3, parses, func() {
		m, err := controlplane.ParseManifest(manifestJSON)
		if err == nil {
			_, err = m.Config()
		}
		l.fail(err)
	})/1e3)

	// Journal fsyncs: real disk behaviour, kept out of every timed
	// end-to-end loop and priced here.
	full := filepath.Join(l.tmpDir, "append.journal")
	j, err := controlplane.CreateJournal(full, classic.Campaign.Name, "")
	if err != nil {
		l.fail(err)
		return
	}
	t0 := time.Now()
	for _, ev := range repClassic.Trace {
		l.fail(j.Append(ev))
	}
	l.set("controlplane.journal_append_us", float64(time.Since(t0).Microseconds())/float64(len(repClassic.Trace)))
	l.fail(j.Close())

	// Resume from a journal holding the first two decisions.
	killed := filepath.Join(l.tmpDir, "resume.journal")
	j, err = controlplane.CreateJournal(killed, classic.Campaign.Name, "")
	if err != nil {
		l.fail(err)
		return
	}
	for _, ev := range repClassic.Trace[:2] {
		l.fail(j.Append(ev))
	}
	l.fail(j.Close())
	if l.err != nil {
		return
	}
	var resumed *controlplane.Report
	tResume := bestOf(1, func() { resumed, err = controlplane.Resume(classic, killed, "") })
	if err != nil {
		l.fail(err)
		return
	}
	if resumed.String() != repClassic.String() {
		l.fail(fmt.Errorf("resumed campaign report differs from the uninterrupted one"))
		return
	}
	l.set("controlplane.resume_over_run", tResume.Seconds()/tClassic.Seconds())

	env := fleet.StandardNodeConfig{Seed: l.seed}.BaselineEnv(0)
	candidate := classic.Campaign.Targets[0].Candidate
	l.set("spec.resolve_us", nsPerOp(3, 2000, func() {
		r, err := spec.Resolve(candidate)
		if err == nil {
			_, err = r.Params(env)
		}
		l.fail(err)
	})/1e3)
}

func (l *ladder) experimentsLayer() {
	for _, id := range paperIDs {
		t0 := time.Now()
		_, err := experiments.Run(id, experiments.Short)
		l.set("experiments."+id+"_s", time.Since(t0).Seconds())
		l.fail(err)
	}
}

// runLadderChild is the child side of the per-layer pass.
func runLadderChild(seed uint64) (map[string]metric, error) {
	tmp, err := os.MkdirTemp(outDir(), "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	return runLadder(seed, tmp)
}

func launchLadder(seed uint64) (map[string]metric, error) {
	out := map[string]metric{}
	if err := launch(&out, "-child", ladderChild, "-seed", fmt.Sprint(seed)); err != nil {
		return nil, err
	}
	return out, nil
}
