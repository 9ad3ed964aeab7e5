package shard

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPartition checks the contiguous near-equal partition and its
// ShardOf inverse for a spread of cell/shard counts, including shard
// counts above the cell count (capped) and zero (one shard).
func TestPartition(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ cells, shards int }{
		{1, 0}, {1, 1}, {1, 8}, {7, 3}, {10, 3}, {64, 8}, {100, 7}, {5, 5},
	} {
		c, err := New(Config{Cells: tc.cells, Shards: tc.shards, Advance: func(int, time.Duration) {}})
		if err != nil {
			t.Fatal(err)
		}
		want := tc.shards
		if want < 1 {
			want = 1
		}
		if want > tc.cells {
			want = tc.cells
		}
		if c.Shards() != want {
			t.Fatalf("cells=%d shards=%d: Shards() = %d, want %d", tc.cells, tc.shards, c.Shards(), want)
		}
		prevHi, minSz, maxSz := 0, tc.cells, 0
		for s := 0; s < c.Shards(); s++ {
			lo, hi := c.Cells(s)
			if lo != prevHi || hi <= lo {
				t.Fatalf("cells=%d shards=%d: shard %d range [%d,%d) not contiguous", tc.cells, tc.shards, s, lo, hi)
			}
			if sz := hi - lo; sz < minSz {
				minSz = sz
			}
			if sz := hi - lo; sz > maxSz {
				maxSz = sz
			}
			for cell := lo; cell < hi; cell++ {
				if got := c.ShardOf(cell); got != s {
					t.Fatalf("cells=%d shards=%d: ShardOf(%d) = %d, want %d", tc.cells, tc.shards, cell, got, s)
				}
			}
			prevHi = hi
		}
		if prevHi != tc.cells {
			t.Fatalf("cells=%d shards=%d: partition covers [0,%d), want [0,%d)", tc.cells, tc.shards, prevHi, tc.cells)
		}
		if maxSz-minSz > 1 {
			t.Fatalf("cells=%d shards=%d: shard sizes range %d..%d, want near-equal", tc.cells, tc.shards, minSz, maxSz)
		}
	}
}

// TestForEachWorkerClamp pins that ForEach never spawns more
// goroutines than jobs: a one-cell job list under a multi-worker
// budget runs inline on the caller's goroutine (its stack is visible
// from the callback), and zero jobs spawn nothing.
func TestForEachWorkerClamp(t *testing.T) {
	t.Parallel()
	var ran int
	ForEach(0, 8, func(int) { ran++ })
	if ran != 0 {
		t.Fatalf("ForEach(0, 8) ran %d jobs", ran)
	}
	ForEach(1, 8, func(int) {
		buf := make([]byte, 1<<14)
		stack := string(buf[:runtime.Stack(buf, false)])
		if !strings.Contains(stack, "TestForEachWorkerClamp") {
			t.Errorf("single job ran on a spawned worker, not inline:\n%s", stack)
		}
		ran++
	})
	if ran != 1 {
		t.Fatalf("ForEach(1, 8) ran %d jobs, want 1", ran)
	}
}

// TestConfigValidate exercises every rejection.
func TestConfigValidate(t *testing.T) {
	t.Parallel()
	adv := func(int, time.Duration) {}
	for _, cfg := range []Config{
		{Cells: 0, Advance: adv},
		{Cells: 4, Shards: -1, Advance: adv},
		{Cells: 4, Workers: -1, Advance: adv},
		{Cells: 4},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("New(%+v) accepted", cfg)
		}
	}
}

// TestSpanAccounting drives mixed free/stepped spans and checks that
// every cell advances by exactly the aligned total, whatever its role,
// and that span validation rejects regressions and unconfigured
// stepping.
func TestSpanAccounting(t *testing.T) {
	t.Parallel()
	const cells = 10
	total := make([]time.Duration, cells)
	c, err := New(Config{
		Cells: cells, Shards: 3,
		Advance: func(cell int, d time.Duration) { total[cell] += d },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Span 1: pure free-run.
	if err := c.Run(Span{Until: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// Span 2: one stepped cell per shard, 700ms epochs over 2s.
	stepped := func(s int) []int { lo, _ := c.Cells(s); return []int{lo} }
	if err := c.Run(Span{Until: 5 * time.Second, Interval: 700 * time.Millisecond, Stepped: stepped}); err != nil {
		t.Fatal(err)
	}
	// No-op span.
	if err := c.Run(Span{Until: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	for cell, d := range total {
		if d != 5*time.Second {
			t.Fatalf("cell %d advanced %v, want 5s", cell, d)
		}
	}
	if c.Aligned() != 5*time.Second {
		t.Fatalf("Aligned() = %v, want 5s", c.Aligned())
	}
	if err := c.Run(Span{Until: time.Second}); err == nil {
		t.Fatal("span behind the aligned fleet accepted")
	}
	if err := c.Run(Span{Until: 6 * time.Second, Stepped: stepped}); err == nil {
		t.Fatal("stepped span without an interval accepted")
	}
}

// TestSpanEpochs pins the epoch grid a stepped span walks: 1-based
// epochs, absolute barrier times, and a final epoch truncated to land
// exactly on Until — the same rule fleet.RunStepped uses, so the epoch
// grid is one grid however a run is driven.
func TestSpanEpochs(t *testing.T) {
	t.Parallel()
	type ep struct {
		Epoch    int
		At, Step time.Duration
	}
	var got []ep
	c, err := New(Config{Cells: 2, Shards: 1, Advance: func(int, time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	span := Span{
		Until:    2500 * time.Millisecond,
		Interval: time.Second,
		Stepped:  func(int) []int { return []int{0} },
		OnEpoch:  func(_, epoch int, at, step time.Duration) { got = append(got, ep{epoch, at, step}) },
	}
	if err := c.Run(span); err != nil {
		t.Fatal(err)
	}
	want := []ep{
		{1, time.Second, time.Second},
		{2, 2 * time.Second, time.Second},
		{3, 2500 * time.Millisecond, 500 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("epoch trace = %+v, want %+v", got, want)
	}

	// The helper grid must agree with what the span walked.
	if n := Epochs(2500*time.Millisecond, time.Second); n != 3 {
		t.Fatalf("Epochs = %d, want 3", n)
	}
	for _, tc := range []struct {
		e    int
		want time.Duration
	}{{1, time.Second}, {2, 2 * time.Second}, {3, 2500 * time.Millisecond}} {
		if at := EpochTime(tc.e, 2500*time.Millisecond, time.Second); at != tc.want {
			t.Fatalf("EpochTime(%d) = %v, want %v", tc.e, at, tc.want)
		}
	}
	if n := Epochs(0, time.Second); n != 0 {
		t.Fatalf("Epochs(0) = %d, want 0", n)
	}
}

// TestObserverOnlySpan checks a span with OnEpoch but no stepped cells
// still fires the per-epoch callbacks (an observer-only shard) while
// all cells free-run.
func TestObserverOnlySpan(t *testing.T) {
	t.Parallel()
	calls := make([]int, 2)
	var visits atomic.Int64
	c, err := New(Config{Cells: 6, Shards: 2, Advance: func(int, time.Duration) { visits.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(Span{
		Until:    3 * time.Second,
		Interval: time.Second,
		OnEpoch:  func(s, _ int, _, _ time.Duration) { calls[s]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls[0] != 3 || calls[1] != 3 {
		t.Fatalf("per-shard epoch callbacks = %v, want [3 3]", calls)
	}
	if visits.Load() != 6 {
		t.Fatalf("cell visits = %d, want 6 (one free-run visit each)", visits.Load())
	}
}

// TestConductorRealClockSmoke is the -race smoke test: shards advance
// concurrently on real wall time (Advance sleeps), with per-shard
// epoch observers mutating shard-local state and a multi-worker
// budget, so the race detector sees the conductor's actual
// synchronization edges. The per-cell accounting must still come out
// exact.
func TestConductorRealClockSmoke(t *testing.T) {
	t.Parallel()
	const cells, shards = 12, 4
	total := make([]time.Duration, cells)
	var mu sync.Mutex
	seen := make(map[int]int) // shard -> epochs observed
	c, err := New(Config{
		Cells: cells, Shards: shards, Workers: 8,
		Advance: func(cell int, d time.Duration) {
			time.Sleep(50 * time.Microsecond) //sollint:allow walltime this smoke simulates real work on the wall clock
			total[cell] += d
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	local := make([]int, shards)
	for i := 0; i < 3; i++ {
		until := time.Duration(i+1) * time.Second
		err := c.Run(Span{
			Until:    until,
			Interval: 250 * time.Millisecond,
			Stepped:  func(s int) []int { lo, hi := c.Cells(s); return []int{lo, hi - 1} },
			OnEpoch:  func(s, _ int, _, _ time.Duration) { local[s]++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		// Between spans the fleet is quiescent: shard-local state is
		// readable from the driver without extra locking.
		mu.Lock()
		for s := 0; s < shards; s++ {
			seen[s] = local[s]
		}
		mu.Unlock()
	}
	for cell, d := range total {
		if d != 3*time.Second {
			t.Fatalf("cell %d advanced %v, want 3s", cell, d)
		}
	}
	for s := 0; s < shards; s++ {
		if seen[s] != 12 {
			t.Fatalf("shard %d observed %d epochs, want 12", s, seen[s])
		}
	}
}

// TestDeterministicAdvanceOrder checks the per-cell advance sequence is
// identical whatever the worker width: each cell sees the same
// durations in the same order, which is the property that lets a
// deterministic per-cell simulation stay deterministic under any
// worker budget.
func TestDeterministicAdvanceOrder(t *testing.T) {
	t.Parallel()
	run := func(workers int) [][]time.Duration {
		const cells = 9
		hist := make([][]time.Duration, cells)
		var mu sync.Mutex
		c, err := New(Config{
			Cells: cells, Shards: 3, Workers: workers,
			Advance: func(cell int, d time.Duration) {
				mu.Lock()
				hist[cell] = append(hist[cell], d)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		stepped := func(s int) []int { lo, _ := c.Cells(s); return []int{lo + 1} }
		if err := c.Run(Span{Until: time.Second, Interval: 300 * time.Millisecond, Stepped: stepped}); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(Span{Until: 2 * time.Second}); err != nil {
			t.Fatal(err)
		}
		return hist
	}
	want := run(1)
	for _, w := range []int{2, 6} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: advance history diverged:\n%v\nvs\n%v", w, got, want)
		}
	}
}
