package memory

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/memsim"
	"sol/internal/stats"
	"sol/internal/testutil"
)

// samplePath is what core's collectStep does with one sample, after
// advancing the memory one base tick.
func samplePath(clk *clock.Virtual, m *Model) error {
	clk.RunFor(300 * time.Millisecond)
	tk, _ := m.CollectData()
	err := m.ValidateData(tk)
	if err == nil {
		m.CommitData(tk.At, tk)
	}
	return err
}

func newTestModel(t *testing.T) (*clock.Virtual, *memsim.Memory, *Model) {
	t.Helper()
	clk, mem := memRig(t, defaultTrace())
	m := new(Model)
	if err := m.init(mem, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return clk, mem, m
}

// TestSamplePathAllocs pins the Model loop's cost per tick at
// arithmetic only, committed or rejected, from the second tick on: the
// first sizes the scan buffer to the region count, and the audit slots
// are fixed-size sums built with the Model, so no warm-up epoch
// precedes the count. Closing an epoch allocates nothing in UpdateModel
// either; Predict allocates exactly the Placement's two slices, which
// cross to the Actuator loop and are held there and in the prediction
// queue, whose depth is the operator's — the Model cannot take them
// back.
func TestSamplePathAllocs(t *testing.T) {
	per := Schedule().DataPerEpoch

	t.Run("accept", func(t *testing.T) {
		clk, _, m := newTestModel(t)
		if err := samplePath(clk, m); err != nil {
			t.Fatalf("first tick rejected: %v", err)
		}
		if n := testutil.Mallocs(t, func() {
			for i := 1; i < per; i++ {
				if err := samplePath(clk, m); err != nil {
					t.Fatalf("tick rejected: %v", err)
				}
			}
		}); n != 0 {
			t.Fatalf("ticks 2..%d of an epoch allocate %d times, want 0", per, n)
		}
	})

	t.Run("reject", func(t *testing.T) {
		clk, mem, m := newTestModel(t)
		eio := errors.New("driver EIO")
		mem.SetScanFault(func(int) error { return eio })
		_ = samplePath(clk, m)
		if n := testutil.Mallocs(t, func() {
			for i := 1; i < per; i++ {
				if err := samplePath(clk, m); err != ErrScanDriver {
					t.Fatalf("faulted tick: err = %v", err)
				}
			}
		}); n != 0 {
			t.Fatalf("rejected ticks 2..%d allocate %d times, want 0", per, n)
		}
	})

	t.Run("epoch", func(t *testing.T) {
		clk, _, m := newTestModel(t)
		if err := samplePath(clk, m); err != nil {
			t.Fatalf("first tick rejected: %v", err)
		}
		const epochs = 3
		if n := testutil.Mallocs(t, func() {
			for tick := 2; tick <= epochs*per; tick++ {
				if err := samplePath(clk, m); err != nil {
					t.Fatalf("tick %d rejected: %v", tick, err)
				}
				if tick%per == 0 {
					m.UpdateModel()
				}
			}
		}); n != 0 {
			t.Fatalf("%d epochs up to UpdateModel, after the first tick, allocate %d times, want 0", epochs, n)
		}
		if avg := testing.AllocsPerRun(5, func() {
			if _, err := m.Predict(); err != nil {
				t.Fatal(err)
			}
		}); avg != 2 {
			t.Fatalf("Predict allocates %.1f times, want 2 (the Placement's Tier2 and Rates)", avg)
		}
	})
}

func TestValidateDataSentinel(t *testing.T) {
	_, _, m := newTestModel(t)
	eio := errors.New("driver EIO")
	err := m.ValidateData(Tick{Err: eio})
	if !errors.Is(err, ErrScanDriver) {
		t.Fatalf("err = %v, want %v", err, ErrScanDriver)
	}
	if err := m.ValidateData(Tick{}); err != nil {
		t.Fatalf("clean tick rejected: %v", err)
	}
	if _, err := m.Predict(); !errors.Is(err, errNoRates) {
		t.Fatalf("Predict before any epoch: err = %v, want %v", err, errNoRates)
	}
}

// TestScanFaultReachesTick: the driver's own error stays readable on
// the tick that ValidateData rejects with the sentinel.
func TestScanFaultReachesTick(t *testing.T) {
	clk, mem, m := newTestModel(t)
	eio := errors.New("driver EIO")
	mem.SetScanFault(func(r int) error {
		if r == 3 {
			return eio
		}
		return nil
	})
	clk.RunFor(300 * time.Millisecond)
	tk, err := m.CollectData()
	if err != nil {
		t.Fatal(err)
	}
	if tk.Err != eio {
		t.Fatalf("Tick.Err = %v, want the driver's %v", tk.Err, eio)
	}
	for _, s := range tk.Scans {
		if s.Region == 3 {
			t.Fatal("faulted region's scan was kept")
		}
	}
}

// TestRateOrderMatchesSortSlice: classify ranks regions with a
// sort.Interface over model-owned storage where it used sort.Slice;
// tied rates (silent regions all estimate 0) must land in the same
// order, or placements — and every pinned figure — would shift.
func TestRateOrderMatchesSortSlice(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = float64(rng.Intn(8)) // heavy ties
		}
		want := rng.Perm(n)
		got := append([]int(nil), want...)
		sort.Slice(want, func(a, b int) bool { return rates[want[a]] > rates[want[b]] })
		sort.Sort(&rateOrder{idx: got, rates: rates})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d): position %d is region %d, sort.Slice put %d", trial, n, i, got[i], want[i])
			}
		}
	}
}

// TestRegionStateIsPointerFree keeps the regions slab out of the
// collector's way: one regionState per 2 MB region is the model's
// largest array, and a single pointer-bearing field anywhere inside it
// makes every collection walk all of it on every node.
func TestRegionStateIsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("%s is a %s (%s): it holds a pointer, so the regions slab would be scanned", path, ty.Kind(), ty)
		}
	}
	walk("regionState", reflect.TypeOf(regionState{}))
}

// TestRegionStateSize keeps the regions slab at 24 bytes a region: the
// one float and counters no wider than their ranges.
func TestRegionStateSize(t *testing.T) {
	if size := unsafe.Sizeof(regionState{}); size > 24 {
		t.Fatalf("regionState is %d bytes, want <= 24", size)
	}
}

// TestStartAllocs pins one launch: the Agent — Model, Actuator and
// runtime in one object — plus the region table, the audit slots, the
// rate estimates, the bandit bank's two slabs, one slab for the audit
// draw's permutation and region list, and the actuator's remote-access
// snapshot. The runtime's prediction queue is inline.
func TestStartAllocs(t *testing.T) {
	clk, mem := memRig(t, defaultTrace())
	var ag *Agent
	got := testutil.Mallocs(t, func() {
		var err error
		if ag, err = start(clk, mem, DefaultConfig(), Schedule(), core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	defer ag.Stop()
	if got != 8 {
		t.Fatalf("one launch allocates %d objects, want 8", got)
	}
}
