package fleet

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"sol/internal/clock"
)

// TestStandardNodeBuildAllocs pins what building one standard node
// (overclock + harvest + memory, its clock and its supervisor) costs in
// heap objects and bytes, measured over a resident fleet the way
// bench's fleet.build_allocs_per_node is. With four heap objects per
// memory region's bandit this read 653 objects and 63.4 KB per node,
// and 84.1 objects / 44.3 KB while each timer was a heap object with a
// closure. Embedded timers make it 62.1 objects / 43.6 KB; the bounds
// are 64 objects, which two more heap objects per node break, and the
// measured bytes plus 10%.
func TestStandardNodeBuildAllocs(t *testing.T) {
	const nodes = 64
	cfg := Config{
		Nodes:    nodes,
		Duration: time.Second,
		Workers:  1,
		Setup:    StandardNode(StandardNodeConfig{Seed: 1}),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewCoordinator(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	objects := float64(after.Mallocs-before.Mallocs) / nodes
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / nodes
	t.Logf("standard node build: %.1f objects, %.2f KB per node", objects, kb)
	if objects > 64 {
		t.Errorf("standard node build allocates %.1f objects per node, want <= 64", objects)
	}
	if kb > 48.0 {
		t.Errorf("standard node build allocates %.2f KB per node, want <= 48.0", kb)
	}
}

func TestStandardNodeRejectsNegativeMemRegions(t *testing.T) {
	std := StandardNode(StandardNodeConfig{MemRegions: -4})
	if _, err := std(0, clock.NewVirtualSingle(time.Unix(0, 0))); err == nil {
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
