package overclock

import (
	"errors"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/node"
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
	m, err := NewModel(n, DefaultConfig("vm"))
	if err != nil {
		t.Fatal(err)
	}
	clk.RunFor(100 * time.Millisecond)
	m.CollectData() // first reading only primes the counter baseline
	return m, clk, n
}

// TestSamplePathAllocs pins the Model loop at arithmetic only: one
// collected sample allocates nothing whether it is committed, rejected
// or passed through a corruptor, and neither does closing an epoch.
func TestSamplePathAllocs(t *testing.T) {
	const runs = 200
	// warm grows the epoch's sample buffer past what a measurement
	// commits, then closes the epoch so the buffer is empty again.
	warm := func(m *Model) {
		for i := 0; i < 2*runs; i++ {
			m.CommitData(time.Time{}, Sample{IPS: 5, Alpha: 0.5})
		}
		m.UpdateModel()
	}

	t.Run("accept", func(t *testing.T) {
		m, clk, _ := busyModel(t)
		warm(m)
		if avg := testing.AllocsPerRun(runs, func() {
			clk.RunFor(100 * time.Millisecond)
			if err := samplePath(m); err != nil {
				t.Fatalf("busy sample rejected: %v", err)
			}
		}); avg != 0 {
			t.Fatalf("accepted sample allocates %.1f times, want 0", avg)
		}
	})

	t.Run("reject and corruptor", func(t *testing.T) {
		m, clk, _ := busyModel(t)
		seen := 0
		m.SetCorruptor(func(s *Sample) {
			seen++
			s.IPS = -42
		})
		if avg := testing.AllocsPerRun(runs, func() {
			clk.RunFor(100 * time.Millisecond)
			if err := samplePath(m); err != ErrIPSRange {
				t.Fatalf("corrupted sample: err = %v", err)
			}
		}); avg != 0 {
			t.Fatalf("corrupted, rejected sample allocates %.1f times, want 0", avg)
		}
		if seen != runs+1 {
			t.Fatalf("corruptor saw %d samples of %d", seen, runs+1)
		}
	})

	t.Run("epoch", func(t *testing.T) {
		m, clk, n := busyModel(t)
		// Overclocked, so every epoch also records a Δr observation.
		if err := n.SetFrequencyLevel("vm", 2); err != nil {
			t.Fatal(err)
		}
		epoch := func() {
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
		for i := 0; i < 20; i++ { // past the 12 s Δr window
			epoch()
		}
		if avg := testing.AllocsPerRun(50, epoch); avg != 0 {
			t.Fatalf("steady-state epoch allocates %.1f times, want 0", avg)
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
