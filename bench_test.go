package sol

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, each regenerating its experiment end to end on
// the virtual clock, plus microbenchmarks for the runtime's hot paths.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks report the experiment's headline metric as
// custom benchmark outputs so regressions in *results*, not just speed,
// are visible across runs.

import (
	"testing"
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
	"sol/internal/stats"
	"sol/internal/workload"
)

// benchExperiment runs one experiment per iteration and reports the
// chosen metrics.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, m := range metrics {
		b.ReportMetric(last.Metrics[m], m)
	}
}

func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1", "benefit_fraction")
}

func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2", "rows")
}

func BenchmarkFig1(b *testing.B) {
	benchExperiment(b, "fig1",
		"Synthetic/SmartOverclock/perf", "Synthetic/SmartOverclock/power",
		"Synthetic/static-2.3GHz/power")
}

func BenchmarkFig2(b *testing.B) {
	benchExperiment(b, "fig2",
		"with-validation/0.05/power", "without-validation/0.05/power")
}

func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3",
		"DiskSpeed/without-safeguard/power_increase",
		"DiskSpeed/with-safeguard/power_increase")
}

func BenchmarkFig4(b *testing.B) {
	benchExperiment(b, "fig4",
		"blocking/extra_power", "non-blocking/extra_power")
}

func BenchmarkFig5(b *testing.B) {
	benchExperiment(b, "fig5",
		"with-safeguard/idle_power", "without-safeguard/idle_power")
}

func BenchmarkFig6Data(b *testing.B) {
	benchExperiment(b, "fig6data",
		"moses/with-validation/p99_increase", "moses/without-validation/p99_increase")
}

func BenchmarkFig6Model(b *testing.B) {
	benchExperiment(b, "fig6model",
		"moses/with-safeguard/p99_increase", "moses/without-safeguard/p99_increase")
}

func BenchmarkFig6Delay(b *testing.B) {
	benchExperiment(b, "fig6delay",
		"moses/non-blocking/p99_increase", "moses/blocking/p99_increase")
}

func BenchmarkFig7(b *testing.B) {
	benchExperiment(b, "fig7",
		"ObjectStore/SmartMemory/scan_reduction",
		"ObjectStore/SmartMemory/slo_attainment")
}

func BenchmarkFig8(b *testing.B) {
	benchExperiment(b, "fig8",
		"no-safeguards/slo_attainment", "all-safeguards/slo_attainment")
}

// Design-choice ablations called out in DESIGN.md.

func BenchmarkAblationEpsilon(b *testing.B) {
	benchExperiment(b, "ablation-epsilon", "eps=0.10/perf")
}

func BenchmarkAblationQueue(b *testing.B) {
	benchExperiment(b, "ablation-queue", "cap=4/p99_ms")
}

func BenchmarkExtSampler(b *testing.B) {
	benchExperiment(b, "ext-sampler",
		"SmartSampler/coverage", "static-round-robin/coverage")
}

// BenchmarkAblationBlocking quantifies the paper's central runtime
// design decision — the decoupled non-blocking actuator — as the ratio
// of extra power paid by the blocking strawman under model delays.
func BenchmarkAblationBlocking(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run("fig4", experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Metrics["blocking/extra_power"] / r.Metrics["non-blocking/extra_power"]
	}
	b.ReportMetric(ratio, "blocking_penalty_x")
}

// --- Fleet-scale benchmarks: many agents, many nodes ---

// benchFleet simulates a fleet of standard nodes (the paper's
// three-agent co-location) per iteration and reports the discrete-
// event throughput, the figure of merit for how much fleet one
// process can simulate.
func benchFleet(b *testing.B, nodes, workers int, dur time.Duration) {
	b.Helper()
	cfg := fleet.Config{
		Nodes:    nodes,
		Duration: dur,
		Workers:  workers,
		Setup:    fleet.StandardNode(fleet.StandardNodeConfig{Seed: 1}),
	}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(nodes)*dur.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "node-s/s")
}

// BenchmarkSupervisorNode is one standard node with three co-located
// agents — the per-node cost every fleet size multiplies.
func BenchmarkSupervisorNode(b *testing.B) {
	benchFleet(b, 1, 1, 10*time.Second)
}

// BenchmarkFleet16 and BenchmarkFleet64 measure worker-pool scaling.
func BenchmarkFleet16(b *testing.B) {
	benchFleet(b, 16, 0, 5*time.Second)
}

func BenchmarkFleet64(b *testing.B) {
	benchFleet(b, 64, 0, 5*time.Second)
}

// BenchmarkFleetSerial pins the pool to one worker, isolating the
// parallel speedup of BenchmarkFleet64.
func BenchmarkFleetSerial(b *testing.B) {
	benchFleet(b, 64, 1, 5*time.Second)
}

// benchFleetStepped is benchFleet on the lockstep driver: the same
// fleet advanced barrier-by-barrier each observation interval. The
// delta against BenchmarkFleet64 is the price of mid-horizon
// observability — it must stay within ~20% of batch.
func benchFleetStepped(b *testing.B, nodes, workers int, dur, interval time.Duration) {
	b.Helper()
	cfg := fleet.Config{
		Nodes:    nodes,
		Duration: dur,
		Workers:  workers,
		Setup:    fleet.StandardNode(fleet.StandardNodeConfig{Seed: 1}),
	}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.RunStepped(cfg, interval, nil)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(nodes)*dur.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "node-s/s")
}

// BenchmarkFleetStepped64 matches BenchmarkFleet64 with a 1 s lockstep
// epoch (5 barriers per run).
func BenchmarkFleetStepped64(b *testing.B) {
	benchFleetStepped(b, 64, 0, 5*time.Second, time.Second)
}

// --- Sharded coordination benchmarks ---
//
// The scenario both sides run: a fleet with a 1% canary cohort under
// fine-grained observation (2 ms — actuation/tick granularity, for
// studying a candidate's transient safety envelope) while the other
// 99% of nodes just need to reach the horizon. A fleet-wide barrier
// (RunStepped) has one clock for everyone, so the whole fleet pays the
// canary's cadence: every node is visited every 2 ms, and at >= 1k
// nodes each revisit restarts from cold cache. The sharded conductor
// confines the cadence to the cohort and free-runs the rest to the
// next alignment — identical simulated events, radically less
// coordination. This is the structural gap that caps fleet-wide-barrier
// fleet size (and on multi-core machines the shards also advance in
// parallel; this container is single-core, so the numbers here are
// pure coordination overhead, no parallelism).

// benchCohort returns the 1%-strided canary cohort for a fleet.
func benchCohort(nodes int) []int {
	cohort := make([]int, 0, nodes/100)
	for i := 0; i < nodes; i += 100 {
		cohort = append(cohort, i)
	}
	return cohort
}

// benchSteppedCanary drives the fleet through fleet-wide barriers:
// every node advances at the observation cadence, the cohort's health
// is read at every barrier.
func benchSteppedCanary(b *testing.B, nodes int, dur, cadence time.Duration) {
	b.Helper()
	cfg := fleet.Config{
		Nodes:    nodes,
		Duration: dur,
		Setup:    fleet.StandardNode(fleet.StandardNodeConfig{Seed: 1}),
	}
	cohort := benchCohort(nodes)
	var events uint64
	var scratch []fleet.MemberHealth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.RunStepped(cfg, cadence, func(_ int, c *fleet.Coordinator) error {
			for _, idx := range cohort {
				scratch = c.Supervisor(idx).HealthDetailInto(scratch)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(nodes)*dur.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "node-s/s")
}

// benchShardedCanary drives the same fleet, horizon, cohort, and
// observation cadence on the sharded conductor: each shard steps only
// its cohort members at the cadence and free-runs its other nodes to
// the horizon in one visit each. profile arms the conductor's
// self-profiler and trace its flight recorder — the *Profiled and
// *Traced twins exist so the bench script can hold each observability
// layer to its <= 2% budget.
func benchShardedCanary(b *testing.B, nodes, shards int, dur, cadence time.Duration, profile, trace bool) {
	b.Helper()
	cfg := fleet.Config{
		Nodes:    nodes,
		Duration: dur,
		Shards:   shards,
		Profile:  profile,
		Trace:    trace,
		Setup:    fleet.StandardNode(fleet.StandardNodeConfig{Seed: 1}),
	}
	cohort := benchCohort(nodes)
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co, err := fleet.NewCoordinator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		con := co.Conductor()
		byShard := make([][]int, con.Shards())
		scratch := make([][]fleet.MemberHealth, con.Shards())
		for _, idx := range cohort {
			s := con.ShardOf(idx)
			byShard[s] = append(byShard[s], idx)
		}
		err = co.Span(shard.Span{
			Until:    dur,
			Interval: cadence,
			Stepped:  func(s int) []int { return byShard[s] },
			OnEpoch: func(s, _ int, _, _ time.Duration) {
				for _, idx := range byShard[s] {
					scratch[s] = co.Supervisor(idx).HealthDetailInto(scratch[s])
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		rep := co.Report()
		co.StopAll()
		events += rep.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(nodes)*dur.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "node-s/s")
}

// BenchmarkFleet1kStepped / BenchmarkFleet1kSharded: the 1k-node
// canary-observation pair at equal worker budget.
func BenchmarkFleet1kStepped(b *testing.B) {
	benchSteppedCanary(b, 1000, 500*time.Millisecond, 2*time.Millisecond)
}

func BenchmarkFleet1kSharded(b *testing.B) {
	benchShardedCanary(b, 1000, 8, 500*time.Millisecond, 2*time.Millisecond, false, false)
}

// BenchmarkFleet4kStepped / BenchmarkFleet4kSharded: at 4k nodes the
// per-epoch sweep no longer fits any cache level and the single
// barrier's cost dominates; this is the pair that shows the >= 1.5x
// structural gap.
func BenchmarkFleet4kStepped(b *testing.B) {
	benchSteppedCanary(b, 4000, 500*time.Millisecond, 2*time.Millisecond)
}

func BenchmarkFleet4kSharded(b *testing.B) {
	benchShardedCanary(b, 4000, 16, 500*time.Millisecond, 2*time.Millisecond, false, false)
}

// BenchmarkFleet4kShardedProfiled is BenchmarkFleet4kSharded with the
// conductor's self-profiler accumulating per-shard time attribution on
// every epoch of the 2 ms canary cadence — the worst case for profiler
// overhead (max samples per simulated second). Must stay within 2% of
// the unprofiled twin.
func BenchmarkFleet4kShardedProfiled(b *testing.B) {
	benchShardedCanary(b, 4000, 16, 500*time.Millisecond, 2*time.Millisecond, true, false)
}

// BenchmarkFleet4kShardedTraced is BenchmarkFleet4kSharded with the
// flight recorder on: every span begin/end and epoch on the 2 ms
// canary cadence lands in the per-shard rings — the maximum event rate
// the recorder sees. Appends are single-writer ring stores with zero
// allocations, so this twin must stay within 2% of the untraced one.
func BenchmarkFleet4kShardedTraced(b *testing.B) {
	benchShardedCanary(b, 4000, 16, 500*time.Millisecond, 2*time.Millisecond, false, true)
}

// BenchmarkFleet10kSharded is the ROADMAP's north-star feasibility
// check: a 10k-node, 30k-agent fleet simulated in one process on the
// sharded conductor, with the canary cohort still observed at 2 ms.
func BenchmarkFleet10kSharded(b *testing.B) {
	benchShardedCanary(b, 10000, 32, 250*time.Millisecond, 2*time.Millisecond, false, false)
}

// benchRollout32 runs a full healthy rollout campaign — canary to 100%
// in four health-gated waves — over a 32-node fleet, once per
// iteration. mut, if non-nil, adjusts each iteration's copy of the
// scenario config.
func benchRollout32(b *testing.B, mut func(*controlplane.Config)) {
	b.Helper()
	base, err := controlplane.NewScenario(controlplane.ScenarioSpec{
		Scenario: controlplane.ScenarioHealthy,
		Nodes:    32,
		Duration: 45 * time.Second,
		Interval: 5 * time.Second,
		Kinds:    []string{"harvest"},
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := base
		if mut != nil {
			mut(&cfg)
		}
		rep, err := controlplane.Run(cfg)
		switch {
		case err != nil:
			b.Fatal(err)
		case !rep.Completed:
			b.Fatal("healthy rollout did not complete")
		case cfg.Fleet.Profile && len(rep.WaveProfiles) == 0:
			b.Fatal("profiled rollout recorded no wave profiles")
		case cfg.Fleet.Trace && rep.Fleet.Trace == nil:
			b.Fatal("traced rollout recorded no trace")
		}
		events += rep.Fleet.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkRollout32 is the rollout on one shard. The healthy scenario
// is an embedded manifest, so this is also the manifest-driven path.
func BenchmarkRollout32(b *testing.B) { benchRollout32(b, nil) }

// BenchmarkRollout32Sharded is BenchmarkRollout32 on 4 shards:
// per-shard cohorts, shard-local soak observation, alignment only at
// gate boundaries. At the control plane's coarse 5 s epochs the shard
// count is within noise — partitioning pays only where fine cadences
// would otherwise serialize the fleet.
func BenchmarkRollout32Sharded(b *testing.B) {
	benchRollout32(b, func(c *controlplane.Config) { c.Fleet.Shards = 4 })
}

// BenchmarkRollout32Profiled is BenchmarkRollout32 with the fleet
// self-profiler on: per-wave profile deltas are snapped at every gate
// decision and the final report carries the full attribution. At the
// control plane's coarse 5 s epochs the profiler is consulted a
// handful of times per simulated second, so this twin must be within
// 2% (noise) of BenchmarkRollout32.
func BenchmarkRollout32Profiled(b *testing.B) {
	benchRollout32(b, func(c *controlplane.Config) { c.Fleet.Profile = true })
}

// BenchmarkRollout32Traced is BenchmarkRollout32 with the flight
// recorder on: spans, epochs, campaign decisions, and heap samples all
// recorded over the full four-wave rollout. At the control plane's
// coarse 5 s epochs the recorder sees a handful of events per
// simulated second, so this twin must be within 2% (noise) of
// BenchmarkRollout32.
func BenchmarkRollout32Traced(b *testing.B) {
	benchRollout32(b, func(c *controlplane.Config) { c.Fleet.Trace = true })
}

// BenchmarkRollout32Robust is BenchmarkRollout32 with the full PR-7
// robustness policy armed — quorum gate, soak extends, deploy
// retries, down-node tolerance — but no lifecycle plan, so no fault
// ever fires. Events/s must stay within noise of BenchmarkRollout32:
// the policy is consulted only at gate boundaries, and the per-epoch
// stepping path skips all lifecycle bookkeeping when the fleet has no
// lifecycle plan.
func BenchmarkRollout32Robust(b *testing.B) {
	benchRollout32(b, func(c *controlplane.Config) {
		camp := *c.Campaign
		camp.Quorum = 0.9
		camp.MaxSoakExtends = 2
		camp.DeployRetries = 2
		camp.TolerateDown = -1
		c.Campaign = &camp
	})
}

// --- Microbenchmarks: the runtime and learner hot paths ---

type nopModel struct{ clk clock.Clock }

func (m *nopModel) CollectData() (int, error) { return 1, nil }
func (m *nopModel) ValidateData(int) error    { return nil }
func (m *nopModel) CommitData(time.Time, int) {}
func (m *nopModel) UpdateModel()              {}
func (m *nopModel) Predict() (Prediction[int], error) {
	return Prediction[int]{Value: 1, Expires: m.clk.Now().Add(time.Second)}, nil
}
func (m *nopModel) DefaultPredict() Prediction[int] { return Prediction[int]{} }
func (m *nopModel) AssessModel() bool               { return true }

type nopActuator struct{}

func (nopActuator) TakeAction(*Prediction[int]) {}
func (nopActuator) AssessPerformance() bool     { return true }
func (nopActuator) Mitigate()                   {}
func (nopActuator) CleanUp()                    {}

// BenchmarkRuntimeEpoch measures the full SOL loop machinery: one
// 10-sample learning epoch plus actuation, scheduled on the virtual
// clock.
func BenchmarkRuntimeEpoch(b *testing.B) {
	clk := clock.NewVirtualSingle(time.Unix(0, 0))
	rt := core.MustRun[int, int](clk, &nopModel{clk: clk}, nopActuator{}, Schedule{
		DataPerEpoch:           10,
		DataCollectInterval:    100 * time.Millisecond,
		MaxEpochTime:           1500 * time.Millisecond,
		AssessModelEvery:       1,
		MaxActuationDelay:      5 * time.Second,
		AssessActuatorInterval: time.Second,
	}, Options{})
	defer rt.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.RunFor(time.Second) // one epoch
	}
}

func BenchmarkQLearnStep(b *testing.B) {
	l := qlearn.MustNew(qlearn.Config{
		States: 10, Actions: 3, Alpha: 0.4, Gamma: 0.3, Epsilon: 0.1, RandSeed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, _ := l.SelectAction(i % 10)
		l.Update(i%10, a, 0.5, (i+1)%10)
	}
}

func BenchmarkCostSensitiveUpdate(b *testing.B) {
	cls := linear.MustNewCostSensitive(9, 6, 0.05)
	x := []float64{0.2, 0.4, 0.35, 0.1, 0.3, 0.02}
	costs := linear.AsymmetricCosts(9, 4, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Update(x, costs)
		_ = cls.Predict(x)
	}
}

func BenchmarkThompsonSelect(b *testing.B) {
	t := bandit.MustNew(6, stats.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm := t.Select()
		t.Reward(arm, i%3 == 0)
	}
}

func BenchmarkWindowPercentile(b *testing.B) {
	w := stats.NewWindow(100)
	rng := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		w.Add(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(rng.Float64())
		_ = w.Percentile(99)
	}
}

// BenchmarkVirtualClock is the event engine's steady-state hot path:
// one self-re-arming ticker on a lock-elided single-driver clock. This
// is the per-event cost every fleet simulation pays, so it must stay
// at zero allocations per event.
func BenchmarkVirtualClock(b *testing.B) {
	clk := clock.NewVirtualSingle(time.Unix(0, 0))
	clk.Tick(time.Millisecond, func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Step()
	}
}

// BenchmarkVirtualClockLocked is the same ticker on the mutexed clock,
// isolating the cost of the lock-elided single-driver mode.
func BenchmarkVirtualClockLocked(b *testing.B) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	clk.Tick(time.Millisecond, func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Step()
	}
}

// BenchmarkVirtualAfterFunc is the pre-Tick idiom — a fresh one-shot
// timer per event — kept as the yardstick for what Reset/Tick save.
func BenchmarkVirtualAfterFunc(b *testing.B) {
	clk := clock.NewVirtualSingle(time.Unix(0, 0))
	var tick func()
	tick = func() { clk.AfterFunc(time.Millisecond, tick) }
	clk.AfterFunc(time.Millisecond, tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Step()
	}
}

// BenchmarkQueueServerOverloaded is one 1 ms tick of an ObjectStore
// already 100k requests deep and loaded at capacity — fig3's regime. A
// tick serves at most 8 requests, so it must cost that, not the depth.
func BenchmarkQueueServerOverloaded(b *testing.B) {
	w := workload.NewObjectStore(stats.NewRNG(1), 8, 1.5, 1.0) // 400 requests/s
	clk := clock.NewVirtualSingle(time.Unix(0, 0))
	long := workload.Step{Clock: clk, Len: int64(250 * time.Second), Sec: (250 * time.Second).Seconds()}
	w.Tick(long, workload.Resources{}) // 100k arrivals, none served
	st := workload.Step{Clock: clk, Now: long.Len, Len: int64(time.Millisecond), Sec: time.Millisecond.Seconds()}
	res := workload.Resources{Cores: 8, FreqGHz: 1.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Tick(st, res)
		st.Now += st.Len
	}
}

// BenchmarkQueueServerP99 is one P99 query of an ObjectStore that has
// completed 10^6 requests and holds ~10^4 more in flight. Completed
// sojourns are kept as a multiset of distinct values, merged from the
// top with the in-flight ages: a query costs the tail it walks, not the
// history behind it.
func BenchmarkQueueServerP99(b *testing.B) {
	// 240 requests/s against the ~315/s that 10 ms ticks retire.
	w := workload.NewObjectStore(stats.NewRNG(1), 8, 1.5, 0.6)
	st := workload.Step{Clock: clock.NewVirtualSingle(time.Unix(0, 0)), Len: int64(10 * time.Millisecond), Sec: (10 * time.Millisecond).Seconds()}
	tick := func(res workload.Resources) {
		w.Tick(st, res)
		st.Now += st.Len
	}
	for w.Served() < 1_000_000 {
		tick(workload.Resources{Cores: 8, FreqGHz: 1.5})
	}
	for i := 0; i < 4200; i++ {
		tick(workload.Resources{}) // ~10^4 arrivals over 42 s, none served
	}
	b.ReportAllocs()
	b.ResetTimer()
	var p99 float64
	for i := 0; i < b.N; i++ {
		p99 = w.P99LatencySeconds()
	}
	b.ReportMetric(p99, "p99_s")
}

// BenchmarkMemsimTick is one 300 ms base tick of a standard node's
// 128-region memory under the SQL trace, whose rates move only at a
// shift every 30 s: the steady state the occupancy memo serves.
func BenchmarkMemsimTick(b *testing.B) {
	clk := clock.NewVirtualSingle(time.Unix(0, 0))
	m := memsim.MustNew(clk, memsim.DefaultConfig(128), workload.NewSQLTrace(128, 1))
	m.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Step()
	}
}
