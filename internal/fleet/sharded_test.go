package fleet

import (
	"reflect"
	"testing"
	"time"

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
			if h := c.Supervisor(lo).Health(); h.Members != 2 {
				t.Errorf("shard %d epoch %d: stepped node has %d members, want 2", s, epoch, h.Members)
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

// TestHealthDetailIntoAllocs pins the control plane's per-epoch cohort
// poll at zero allocations once the scratch buffer has grown: at
// gigabyte-scale fleet heaps, a single GC mark triggered by polling
// garbage costs more than the epochs being observed.
func TestHealthDetailIntoAllocs(t *testing.T) {
	cfg := Config{
		Nodes:    1,
		Duration: time.Second,
		Setup:    StandardNode(StandardNodeConfig{Seed: 1}),
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
	allocs := testing.AllocsPerRun(100, func() {
		scratch = sup.HealthDetailInto(scratch)
	})
	if allocs != 0 {
		t.Fatalf("HealthDetailInto allocates %.1f per poll, want 0", allocs)
	}
	if got := sup.HealthDetail(); !reflect.DeepEqual(got, scratch) {
		t.Fatalf("HealthDetailInto diverged from HealthDetail:\n%+v\nvs\n%+v", scratch, got)
	}
}

// TestStandardNodeSteadyStateAllocs pins what one warmed standard node
// (overclock + harvest + memory at fleet cadences: ~2,000 samples and
// ~41 learning epochs per simulated second) allocates per simulated
// second. Before the agents' sample path was made allocation-free this
// read ~1,380; what is left is amortised growth of the workload's
// latency log and SmartMemory's per-epoch placement hand-off. The bound
// is the measured 1.4 plus 10%.
func TestStandardNodeSteadyStateAllocs(t *testing.T) {
	c, err := NewCoordinator(Config{
		Nodes:    1,
		Duration: time.Hour,
		Workers:  1,
		Setup:    StandardNode(StandardNodeConfig{Seed: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	c.StepFor(5 * time.Second)
	const window = 10 * time.Second
	perWindow := testing.AllocsPerRun(3, func() { c.StepFor(window) })
	if perSecond := perWindow / window.Seconds(); perSecond > 1.55 {
		t.Fatalf("warmed standard node allocates %.2f objects per node-second, want <= 1.55", perSecond)
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
