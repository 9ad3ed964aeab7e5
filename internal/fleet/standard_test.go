package fleet

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/testutil"
)

// TestStandardNodeBuildAllocs pins what building one standard node
// (overclock + harvest + memory, its clock and its supervisor) costs in
// heap objects and bytes, measured over a resident fleet the way
// bench's fleet.build_allocs_per_node is. With four heap objects per
// memory region's bandit this read 653 objects and 63.4 KB per node,
// and 84.1 objects / 44.3 KB while each timer was a heap object with a
// closure. Embedded timers made it 62.1 objects / 43.3 KB. Packing
// SmartMemory's region state to 24 B and folding its audit log into
// fixed per-slot sums made it 63.1 objects / 41.35 KB — the extra
// object is SmartHarvest's epoch buffer, sized from its schedule here
// instead of doubling at run time. Holding each agent's Model, Actuator
// and runtime in one object, the learners in their models, and the
// node's, supervisor's and clock's small tables inline makes it 47.1
// objects / 41.27 KB, SmartOverclock's Δr log now sized here too.
// Holding the node's three VMs, each runtime's prediction ring and
// TailBench's server and phases inline, and carving SmartHarvest's cost
// vector and SmartMemory's audit list from slabs they already had,
// makes it 38.1 objects / 41.47 KB. The count is exact
// (testutil.Mallocs), so it skips under -short; the bounds are 39
// objects, which one more heap object per node breaks, and 45.4 KB, the
// 41.27 KB build plus 10%.
func TestStandardNodeBuildAllocs(t *testing.T) {
	const nodes = 64
	cfg := Config{
		Nodes:    nodes,
		Duration: time.Second,
		Workers:  1,
		Setup:    StandardNode(StandardNodeConfig{Seed: 1}),
	}
	var (
		c             *Coordinator
		err           error
		before, after runtime.MemStats
	)
	runtime.GC()
	mallocs := testutil.Mallocs(t, func() {
		runtime.ReadMemStats(&before)
		c, err = NewCoordinator(cfg)
		runtime.ReadMemStats(&after)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	objects := float64(mallocs) / nodes
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / nodes
	t.Logf("standard node build: %.1f objects, %.2f KB per node", objects, kb)
	if objects > 39 {
		t.Errorf("standard node build allocates %.1f objects per node, want <= 39", objects)
	}
	if kb > 45.4 {
		t.Errorf("standard node build allocates %.2f KB per node, want <= 45.4", kb)
	}
}

// TestStandardNodeWarmupAllocs bounds what a freshly built standard
// node allocates in its first 5 s of simulated time, beyond its build.
// The learners' epoch buffers — SmartOverclock's Δr log included — are
// sized at build or on their first sample, and the request FIFO is
// made at build for the server's cores, so what is left is the
// substrate's own growth (deeper request queues and sojourn tables)
// plus a few one-time buffers: 15 objects (19 while the FIFO grew from
// empty), where doubling sample and audit logs cost ~100 and the Δr log
// 3 more. The count is exact (testutil.Mallocs), so like
// TestStandardNodeLiveHeapFlat it skips under -short.
func TestStandardNodeWarmupAllocs(t *testing.T) {
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
	objects := testutil.Mallocs(t, func() { c.StepFor(5 * time.Second) })
	t.Logf("standard node warm-up: %d objects per node in its first 5 s", objects)
	if objects > 16 {
		t.Errorf("standard node allocates %d objects in its first 5 s, want <= 16", objects)
	}
}

// TestCoordinatorReportAllocs: Report snapshots each node's member
// statuses into that node's own result, so it costs the same heap
// objects at any fleet size, and a supervisor's StopAll stops every
// member from its frozen table, copying nothing, so tearing down every
// node allocates nothing. The counts are exact (testutil.Mallocs), so
// it skips under -short.
func TestCoordinatorReportAllocs(t *testing.T) {
	var reports [2]uint64
	for i, nodes := range []int{32, 128} {
		c, err := NewCoordinator(Config{
			Nodes:    nodes,
			Duration: time.Second,
			Workers:  1,
			Setup:    StandardNode(StandardNodeConfig{Seed: 1}),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.StepFor(100 * time.Millisecond)
		var rep *Report
		reports[i] = testutil.Mallocs(t, func() { rep = c.Report() })
		if want := nodes * len(StandardKinds); rep.Agents != want {
			t.Fatalf("%d-node report counts %d agents, want %d", nodes, rep.Agents, want)
		}
		stops := testutil.Mallocs(t, func() {
			for idx := range nodes {
				c.Supervisor(idx).StopAll()
			}
		})
		c.StopAll()
		t.Logf("coordinator report: %d objects at %d nodes, StopAll %d", reports[i], nodes, stops)
		if stops != 0 {
			t.Errorf("StopAll on %d supervisors allocates %d objects, want 0", nodes, stops)
		}
	}
	if reports[0] != reports[1] {
		t.Errorf("Report allocates %d objects at 32 nodes but %d at 128, want equal", reports[0], reports[1])
	}
}

func TestStandardNodeRejectsNegativeMemRegions(t *testing.T) {
	std := StandardNode(StandardNodeConfig{MemRegions: -4})
	if _, err := std(0, clock.NewVirtual(time.Unix(0, 0))); err == nil {
		t.Fatal("MemRegions = -4 built a node")
	}
}

// TestStandardNodeSharedTablesConcurrent builds and runs a fleet whose
// nodes all read the tables one StandardNode closure computed — the
// DVFS levels and the SQL traces' Zipf weights — from several workers
// at once. Under -race a write to either would be reported; the report
// must not depend on the worker count.
func TestStandardNodeSharedTablesConcurrent(t *testing.T) {
	cfg := Config{
		Nodes:    8,
		Duration: 2 * time.Second,
		Workers:  4,
		Setup:    StandardNode(StandardNodeConfig{Seed: 5}),
	}
	wide, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wide, serial) {
		t.Fatalf("report depends on worker count:\n%v\nvs\n%v", wide, serial)
	}
}
