package memory

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/memsim"
	"sol/internal/stats"
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
	m, err := NewModel(mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return clk, mem, m
}

// runEpoch collects one full 128-tick epoch and closes it.
func runEpoch(t *testing.T, clk *clock.Virtual, m *Model) {
	t.Helper()
	for i := 0; i < Schedule().DataPerEpoch; i++ {
		if err := samplePath(clk, m); err != nil {
			t.Fatalf("tick %d rejected: %v", i, err)
		}
	}
	m.UpdateModel()
}

// TestSamplePathAllocs pins the Model loop's cost per tick at
// arithmetic only, committed or rejected, once the scan buffer and the
// audit slots have held one epoch. Closing an epoch allocates nothing
// in UpdateModel; Predict allocates exactly the Placement's two slices,
// which cross to the Actuator loop and are held there and in the
// prediction queue, whose depth is the operator's — the Model cannot
// take them back.
func TestSamplePathAllocs(t *testing.T) {
	t.Run("accept", func(t *testing.T) {
		clk, _, m := newTestModel(t)
		runEpoch(t, clk, m)
		if avg := testing.AllocsPerRun(100, func() {
			if err := samplePath(clk, m); err != nil {
				t.Fatalf("tick rejected: %v", err)
			}
		}); avg != 0 {
			t.Fatalf("accepted tick allocates %.1f times, want 0", avg)
		}
	})

	t.Run("reject", func(t *testing.T) {
		clk, mem, m := newTestModel(t)
		runEpoch(t, clk, m)
		eio := errors.New("driver EIO")
		mem.SetScanFault(func(int) error { return eio })
		if avg := testing.AllocsPerRun(100, func() {
			if err := samplePath(clk, m); err != ErrScanDriver {
				t.Fatalf("faulted tick: err = %v", err)
			}
		}); avg != 0 {
			t.Fatalf("rejected tick allocates %.1f times, want 0", avg)
		}
	})

	t.Run("epoch", func(t *testing.T) {
		clk, _, m := newTestModel(t)
		runEpoch(t, clk, m)
		runEpoch(t, clk, m)
		if avg := testing.AllocsPerRun(5, func() { runEpoch(t, clk, m) }); avg != 0 {
			t.Fatalf("steady-state epoch up to UpdateModel allocates %.1f times, want 0", avg)
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
