package overclock

import (
	"errors"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/node"
	"sol/internal/testutil"
)

// samplePath is what core's collectStep does with one sample.
func samplePath(m *Model) error {
	s, _ := m.CollectData()
	err := m.ValidateData(s)
	if err == nil {
		m.CommitData(s.At, s)
	}
	return err
}

// busyModel is a Model on a CPU-bound VM with its counter baseline
// primed; callers advance clk one 100 ms sampling interval per sample.
func busyModel(t *testing.T) (*Model, *clock.Virtual, *node.Node) {
	t.Helper()
	clk, n := newRig(t, busyWork{})
	m := new(Model)
	if err := m.init(n, DefaultConfig("vm"), Schedule()); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(100 * time.Millisecond)
	m.CollectData() // first reading only primes the counter baseline
	return m, clk, n
}

// TestSamplePathAllocs pins the Model loop at arithmetic only: from the
// second sample on, a sample committed, rejected or passed through a
// corruptor allocates nothing — an epoch's samples are running sums,
// not a buffer — and neither does closing an epoch: the Δr log is sized
// for its window when the Model is built.
func TestSamplePathAllocs(t *testing.T) {
	const runs = 200

	t.Run("accept", func(t *testing.T) {
		m, clk, _ := busyModel(t)
		if n := testutil.Mallocs(t, func() {
			for i := 0; i < runs; i++ {
				clk.RunFor(100 * time.Millisecond)
				if err := samplePath(m); err != nil {
					t.Fatalf("busy sample rejected: %v", err)
				}
			}
		}); n != 0 {
			t.Fatalf("%d accepted samples allocate %d times, want 0", runs, n)
		}
	})

	t.Run("reject and corruptor", func(t *testing.T) {
		m, clk, _ := busyModel(t)
		seen := 0
		m.SetCorruptor(func(s *Sample) {
			seen++
			s.IPS = -42
		})
		if n := testutil.Mallocs(t, func() {
			for i := 0; i < runs; i++ {
				clk.RunFor(100 * time.Millisecond)
				if err := samplePath(m); err != ErrIPSRange {
					t.Fatalf("corrupted sample: err = %v", err)
				}
			}
		}); n != 0 {
			t.Fatalf("%d corrupted, rejected samples allocate %d times, want 0", runs, n)
		}
		if seen != runs {
			t.Fatalf("corruptor saw %d samples of %d", seen, runs)
		}
	})

	t.Run("epoch", func(t *testing.T) {
		m, clk, n := busyModel(t)
		// Overclocked, so every epoch also records a Δr observation.
		if err := n.SetFrequencyLevel("vm", 2); err != nil {
			t.Fatal(err)
		}
		epochs := func(k int) {
			for e := 0; e < k; e++ {
				for i := 0; i < 10; i++ {
					clk.RunFor(100 * time.Millisecond)
					if err := samplePath(m); err != nil {
						t.Fatalf("busy sample rejected: %v", err)
					}
				}
				m.UpdateModel()
				if _, err := m.Predict(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The Δr log is sized at build for the 12 s window it holds, so
		// no epoch — the first included — allocates.
		if got := testutil.Mallocs(t, func() { epochs(70) }); got != 0 {
			t.Fatalf("70 epochs allocate %d times, want 0", got)
		}
		if c := cap(m.deltaR); c != 13 {
			t.Fatalf("Δr log capacity %d, want 13: ⌈12 s / 1 s⌉ + 1", c)
		}
		if m.Learner().Updates() == 0 || len(m.deltaR) == 0 {
			t.Fatalf("epochs trained nothing: %d updates, %d Δr observations", m.Learner().Updates(), len(m.deltaR))
		}
	})
}

// TestCorruptorSeesAndMutatesEverySample: the corruptor works on a copy
// of the reading, so it must still see the real reading every time and
// its mutation must be what CollectData returns — the bad-data arm of
// Figure 3 injects its faults through this seam.
func TestCorruptorSeesAndMutatesEverySample(t *testing.T) {
	m, clk, _ := busyModel(t)
	var seen []Sample
	m.SetCorruptor(func(s *Sample) {
		seen = append(seen, *s)
		s.IPS = -42
	})
	for i := 0; i < 10; i++ {
		clk.RunFor(100 * time.Millisecond)
		got, err := m.CollectData()
		if err != nil {
			t.Fatal(err)
		}
		if got.IPS != -42 {
			t.Fatalf("sample %d: corruptor's mutation lost: %+v", i, got)
		}
		real := seen[i]
		if real.IPS <= 0 || real.Alpha <= 0 {
			t.Fatalf("sample %d: corruptor saw %+v, want the busy VM's real reading", i, real)
		}
		if got.Alpha != real.Alpha || got.At != real.At || got.FreqLevel != real.FreqLevel {
			t.Fatalf("sample %d: untouched fields changed: saw %+v, returned %+v", i, real, got)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("corruptor saw %d of 10 samples", len(seen))
	}
	m.SetCorruptor(nil)
	clk.RunFor(100 * time.Millisecond)
	if got, _ := m.CollectData(); got.IPS <= 0 {
		t.Fatalf("after clearing the corruptor: IPS %v, want the real reading", got.IPS)
	}
}

func TestValidateDataSentinels(t *testing.T) {
	m, _, _ := busyModel(t)
	for _, tc := range []struct {
		s    Sample
		want error
	}{
		{Sample{IPS: -1, Alpha: 0.5}, ErrIPSRange},
		{Sample{IPS: 1e6, Alpha: 0.5}, ErrIPSRange},
		{Sample{IPS: 5, Alpha: -0.5}, ErrAlphaRange},
		{Sample{IPS: 5, Alpha: 1.5}, ErrAlphaRange},
		{Sample{IPS: 5, Alpha: 0.5}, nil},
	} {
		err := m.ValidateData(tc.s)
		if !errors.Is(err, tc.want) {
			t.Errorf("%+v: err = %v, want %v", tc.s, err, tc.want)
		}
		for _, other := range []error{ErrIPSRange, ErrAlphaRange} {
			if other != tc.want && errors.Is(err, other) {
				t.Errorf("%+v: err = %v also matches %v", tc.s, err, other)
			}
		}
	}
}

// TestStartAllocs pins one launch: the Agent — Model, Actuator and
// runtime in one object — plus the Q-table slab, the per-level tally,
// the Δr log and the α window. The runtime's prediction queue is
// inline.
func TestStartAllocs(t *testing.T) {
	clk, n := newRig(t, busyWork{})
	var ag *Agent
	got := testutil.Mallocs(t, func() {
		var err error
		if ag, err = start(clk, n, DefaultConfig("vm"), Schedule(), core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	defer ag.Stop()
	if got != 5 {
		t.Fatalf("one launch allocates %d objects, want 5", got)
	}
}
