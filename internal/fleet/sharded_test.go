package fleet

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"sol/internal/faults"
	"sol/internal/shard"
)

// TestShardedMatchesBatch is the sharded coordinator's core contract:
// partitioning the fleet into shards — whatever the shard count or
// worker width — changes nothing about the simulation, only how it is
// scheduled. Every combination must produce a report byte-identical to
// the batch driver's.
func TestShardedMatchesBatch(t *testing.T) {
	t.Parallel()
	base := Config{
		Nodes:    10,
		Duration: 3 * time.Second,
		Setup:    StandardNode(StandardNodeConfig{Seed: 7}),
	}
	batch, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 5} {
		for _, workers := range []int{1, 3} {
			cfg := base
			cfg.Shards = shards
			cfg.Workers = workers
			c, err := NewCoordinator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.StepFor(cfg.Duration)
			rep := c.Report()
			c.StopAll()
			if !reflect.DeepEqual(batch, rep) {
				t.Fatalf("shards=%d workers=%d: sharded report diverged from batch:\n%v\nvs\n%v",
					shards, workers, batch, rep)
			}
			if batch.String() != rep.String() {
				t.Fatalf("shards=%d workers=%d: rendered reports differ", shards, workers)
			}
		}
	}
}

// TestShardedSpanMatchesBatch checks that how a span slices node time
// is unobservable in the aggregate: stepping a cohort epoch-by-epoch
// while the rest of its shard free-runs yields the same report as
// batch, and the per-shard epoch observers fire on the conductor's
// grid with the stepped nodes quiescent.
func TestShardedSpanMatchesBatch(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Nodes:    8,
		Duration: 3 * time.Second,
		Shards:   2,
		Setup:    StandardNode(StandardNodeConfig{Seed: 9, Kinds: []string{"overclock", "harvest"}}),
	}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	epochs := make([]int, c.Shards())
	// First span: the first node of each shard steps at 400ms epochs
	// under observation; the rest free-run to the 2s alignment.
	err = c.Span(shard.Span{
		Until:    2 * time.Second,
		Interval: 400 * time.Millisecond,
		Stepped: func(s int) []int {
			lo, _ := c.Conductor().Cells(s)
			return []int{lo}
		},
		OnEpoch: func(s, epoch int, at, step time.Duration) {
			epochs[s]++
			lo, _ := c.Conductor().Cells(s)
			if n := len(c.Supervisor(lo).Members()); n != 2 {
				t.Errorf("shard %d epoch %d: stepped node has %d members, want 2", s, epoch, n)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for s, n := range epochs {
		if n != 5 {
			t.Fatalf("shard %d observed %d epochs, want 5", s, n)
		}
	}
	// Second span: free-run everyone to the horizon.
	if err := c.Span(shard.Span{Until: cfg.Duration}); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if !reflect.DeepEqual(batch, rep) {
		t.Fatalf("span-driven report diverged from batch:\n%v\nvs\n%v", batch, rep)
	}
}

// quietPlan is a lifecycle plan that names an instant every period but
// never changes any node's state: under it every advance takes the
// plan's segmented path and applies the (unchanged) state at each
// instant, which is what the lifecycle cases of the alloc guards below
// need inside their measured window.
type quietPlan struct{ period time.Duration }

func (quietPlan) State(int, time.Duration) faults.NodeState { return faults.NodeUp }

func (p quietPlan) Next(_ int, after time.Duration) (time.Duration, bool) {
	return (after/p.period + 1) * p.period, true
}

// TestHealthDetailIntoAllocs pins the control plane's per-epoch cohort
// poll at zero allocations once the scratch buffer has grown: at
// gigabyte-scale fleet heaps, a single GC mark triggered by polling
// garbage costs more than the epochs being observed. The poll is the
// one cohortHealthOver makes — the node's fault state, then its member
// health — with and without a lifecycle plan.
func TestHealthDetailIntoAllocs(t *testing.T) {
	for _, plan := range []faults.NodePlan{nil, quietPlan{time.Millisecond}} {
		cfg := Config{
			Nodes:     1,
			Duration:  time.Second,
			Setup:     StandardNode(StandardNodeConfig{Seed: 1}),
			Lifecycle: plan,
		}
		c, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.StopAll()
		c.StepFor(time.Second)
		sup := c.Supervisor(0)
		scratch := sup.HealthDetailInto(nil) // grow once
		if len(scratch) != 3 {
			t.Fatalf("standard node has %d members, want 3", len(scratch))
		}
		polled := 0
		allocs := testing.AllocsPerRun(100, func() {
			now := c.Elapsed()
			if c.NodeDown(0) && !c.NodeTransitions(0, now, now+time.Second) {
				return
			}
			if !c.NodeDark(0) {
				scratch = sup.HealthDetailInto(scratch)
				polled++
			}
			_ = c.Events()
		})
		if allocs != 0 || polled == 0 {
			t.Fatalf("plan %v: HealthDetailInto poll allocates %.1f per poll over %d polls, want 0", plan, allocs, polled)
		}
		if got := sup.HealthDetailInto(nil); !reflect.DeepEqual(got, scratch) {
			t.Fatalf("reused HealthDetailInto diverged from a fresh one:\n%+v\nvs\n%+v", scratch, got)
		}
	}
}

// TestStandardNodeSteadyStateAllocs pins what one warmed standard node
// (overclock + harvest + memory at fleet cadences: ~2,000 samples and
// ~41 learning epochs per simulated second) allocates per simulated
// second. Before the agents' sample path was made allocation-free this
// read ~1,380; what is left is SmartMemory's per-epoch placement
// hand-off. The bound is the 1.4 measured while the workload still kept
// a growing latency log, plus 10%. The lifecycle case steps the node
// through a plan instant every millisecond, so an allocation in the
// lifecycle stepping path would add at least 1,000 per node-second.
func TestStandardNodeSteadyStateAllocs(t *testing.T) {
	for _, plan := range []faults.NodePlan{nil, quietPlan{time.Millisecond}} {
		c, err := NewCoordinator(Config{
			Nodes:     1,
			Duration:  time.Hour,
			Workers:   1,
			Setup:     StandardNode(StandardNodeConfig{Seed: 1}),
			Lifecycle: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.StopAll()
		c.StepFor(5 * time.Second)
		const window = 10 * time.Second
		perWindow := testing.AllocsPerRun(3, func() { c.StepFor(window) })
		if perSecond := perWindow / window.Seconds(); perSecond > 1.55 {
			t.Fatalf("plan %v: warmed standard node allocates %.2f objects per node-second, want <= 1.55", plan, perSecond)
		}
	}
}

// TestStandardNodeLiveHeapFlat bounds what a warmed standard node keeps,
// not what it allocates: live heap after GC may grow by at most 128 B
// per node-second over a minute of simulated time. A node's state must
// be bounded by its work — queue depth, distinct sojourns, learner
// windows — not by its simulated history; while the workload logged
// every served request's latency this read ~2,600 B. The warm-up runs
// past SmartMemory's first learning epoch (38.4 s) and actuation
// deadline (45 s), so its first placement has landed. Its model state
// is no longer sized by that epoch: the audit slots are fixed-size sums
// built with the model, and the scan buffer is sized to the region
// count on the first tick.
func TestStandardNodeLiveHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("reads process-wide heap statistics; run without -short and -race")
	}
	const nodes = 4
	c, err := NewCoordinator(Config{
		Nodes:    nodes,
		Duration: time.Hour,
		Workers:  1,
		Setup:    StandardNode(StandardNodeConfig{Seed: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	c.StepFor(60 * time.Second)
	before := live()
	const window = 60 * time.Second
	c.StepFor(window)
	after := live()
	growth := float64(int64(after-before)) / (nodes * window.Seconds())
	t.Logf("live heap %d -> %d B: %.0f B per node-second", before, after, growth)
	if growth > 128 {
		t.Fatalf("warmed standard node's live heap grows %.0f B per node-second (%d -> %d B over %v on %d nodes), want <= 128",
			growth, before, after, window, nodes)
	}
}

// TestShardedRunSteppedUnchanged pins that RunStepped over a sharded
// config keeps its fleet-wide-barrier semantics (every node at
// every epoch) and its byte-identical-to-batch contract.
func TestShardedRunSteppedUnchanged(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Nodes:    6,
		Duration: 2 * time.Second,
		Shards:   3,
		Workers:  2,
		Setup:    StandardNode(StandardNodeConfig{Seed: 3, Kinds: []string{"overclock"}}),
	}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var barriers []time.Duration
	stepped, err := RunStepped(cfg, 700*time.Millisecond, func(epoch int, c *Coordinator) error {
		barriers = append(barriers, c.Elapsed())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{700 * time.Millisecond, 1400 * time.Millisecond, 2 * time.Second}
	if !reflect.DeepEqual(barriers, want) {
		t.Fatalf("barriers = %v, want %v", barriers, want)
	}
	if !reflect.DeepEqual(batch, stepped) {
		t.Fatalf("sharded RunStepped diverged from batch:\n%v\nvs\n%v", batch, stepped)
	}
}
