package memory

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/memsim"
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
// either. Predict and DefaultPredict each allocate exactly the
// Placement's two slices, Tier2 and Rates, which cross to the Actuator
// loop and are held there and in the prediction queue, whose depth is
// the operator's — the Model cannot take them back. Their rankings run
// over Model-owned scratch, sized by the first call.
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
		if avg := testing.AllocsPerRun(5, func() {
			if p := m.DefaultPredict(); len(p.Value.Tier2) == 0 {
				t.Fatal("DefaultPredict offloads nothing")
			}
		}); avg != 2 {
			t.Fatalf("DefaultPredict allocates %.1f times, want 2 (the Placement's Tier2 and Rates)", avg)
		}
	})
}

// TestActuatorAllocs: the Actuator ranks promotions and mitigations in
// scratch it makes at its first TakeAction or Mitigate, so every later
// call, whichever comes first, allocates nothing.
func TestActuatorAllocs(t *testing.T) {
	clk, mem := memRig(t, defaultTrace())
	n := mem.Regions()
	rates := make([]float64, n)
	for r := range rates {
		rates[r] = float64(r % 5) // ties
	}
	var evens, odds []int
	for r := 0; r < n; r++ {
		if r%2 == 0 {
			evens = append(evens, r)
		} else {
			odds = append(odds, r)
		}
	}
	preds := []core.Prediction[Placement]{
		{Value: Placement{Tier2: evens, Rates: rates}},
		{Value: Placement{Tier2: odds, Rates: rates}},
	}
	for _, first := range []string{"TakeAction", "Mitigate"} {
		t.Run(first, func(t *testing.T) {
			a := new(Actuator)
			a.init(mem, DefaultConfig())
			if first == "TakeAction" {
				a.TakeAction(&preds[0])
			} else {
				a.Mitigate()
			}
			if n := testutil.Mallocs(t, func() {
				for i := 0; i < 8; i++ {
					a.TakeAction(&preds[i%2])
					clk.RunFor(time.Second)
					a.Mitigate()
				}
			}); n != 0 {
				t.Fatalf("TakeAction and Mitigate after the first %s allocate %d times, want 0", first, n)
			}
		})
	}
}

// TestStaticPolicyAllocs: Figure 7's baseline scans, re-ranks and
// re-places over storage it owns; once the first epoch's re-rank has
// sized the ranked list, ticks and re-ranks allocate nothing.
func TestStaticPolicyAllocs(t *testing.T) {
	for _, every := range []int{1, 32} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			clk, mem := memRig(t, defaultTrace())
			const epochTicks = 16
			s := NewStaticPolicy(clk, mem, every, 0.85, epochTicks)
			s.Start()
			defer s.Stop()
			clk.RunFor(s.EpochDuration())
			if n := testutil.Mallocs(t, func() {
				clk.RunFor(8 * s.EpochDuration())
			}); n != 0 {
				t.Fatalf("8 epochs after the first allocate %d times, want 0", n)
			}
		})
	}
}

// TestAgentSizeClass keeps an Agent in the runtime's 2,048-byte size
// class, which every fleet node pays once per SmartMemory launch: one
// byte more moves each node to the 2,304-byte class and raises every
// fleet workload's allocated bytes. The Actuator's ranking scratch sits
// behind one pointer for this reason; inline it is 96 bytes, which
// would leave the Agent at 2,048 with no headroom.
func TestAgentSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Agent{}); size > 2048 {
		t.Fatalf("Agent is %d bytes, want <= 2048", size)
	}
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
