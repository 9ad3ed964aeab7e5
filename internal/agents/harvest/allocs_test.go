package harvest

import (
	"errors"
	"testing"
	"time"

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

// steadyModel is a Model on a node whose primary VM has just run one
// tick of a steady 2-core demand.
func steadyModel(t *testing.T) (*Model, *node.Node) {
	t.Helper()
	clk, n, _ := harvestNode(t, &steppedLoad{low: 2, high: 2, phase: time.Hour})
	m, err := NewModel(n, DefaultConfig("primary", "elastic"))
	if err != nil {
		t.Fatal(err)
	}
	clk.RunFor(time.Millisecond)
	return m, n
}

// TestSamplePathAllocs pins the Model loop at arithmetic only: one
// collected sample allocates nothing whether it is committed, rejected
// or passed through a corruptor, and neither does closing an epoch.
func TestSamplePathAllocs(t *testing.T) {
	const runs = 500
	// warm grows the epoch's sample buffer past what a measurement
	// commits, then closes the epoch so the buffer is empty again.
	warm := func(m *Model) {
		for i := 0; i < 2*runs; i++ {
			m.CommitData(time.Time{}, Sample{Util: 2, Granted: 8})
		}
		m.UpdateModel()
	}

	t.Run("accept", func(t *testing.T) {
		m, _ := steadyModel(t)
		warm(m)
		if avg := testing.AllocsPerRun(runs, func() {
			if err := samplePath(m); err != nil {
				t.Fatalf("steady sample rejected: %v", err)
			}
		}); avg != 0 {
			t.Fatalf("accepted sample allocates %.1f times, want 0", avg)
		}
	})

	t.Run("reject", func(t *testing.T) {
		m, n := steadyModel(t)
		// 2 cores used of 2 granted: demand is censored.
		if err := n.SetAvailableCores("primary", 2); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(runs, func() {
			if err := samplePath(m); err != ErrCensored {
				t.Fatalf("censored sample: err = %v", err)
			}
		}); avg != 0 {
			t.Fatalf("rejected sample allocates %.1f times, want 0", avg)
		}
	})

	t.Run("corruptor", func(t *testing.T) {
		m, _ := steadyModel(t)
		warm(m)
		seen := 0
		m.SetCorruptor(func(s *Sample) {
			seen++
			if seen%2 == 0 {
				s.Util = -3
			}
		})
		if avg := testing.AllocsPerRun(runs, func() { _ = samplePath(m) }); avg != 0 {
			t.Fatalf("corrupted sample path allocates %.1f times, want 0", avg)
		}
		if seen != runs+1 {
			t.Fatalf("corruptor saw %d samples of %d", seen, runs+1)
		}
	})

	t.Run("epoch", func(t *testing.T) {
		m, _ := steadyModel(t)
		epoch := func() {
			for i := 0; i < 25; i++ {
				if err := samplePath(m); err != nil {
					t.Fatalf("steady sample rejected: %v", err)
				}
			}
			m.UpdateModel()
			if _, err := m.Predict(); err != nil {
				t.Fatal(err)
			}
		}
		epoch() // sample buffer, sort scratch
		epoch() // first classifier update
		if avg := testing.AllocsPerRun(50, epoch); avg != 0 {
			t.Fatalf("steady-state epoch allocates %.1f times, want 0", avg)
		}
		if m.Classifier().Updates() == 0 {
			t.Fatal("epochs never trained the classifier")
		}
	})
}

// TestCorruptorSeesAndMutatesEverySample: the corruptor works on a copy
// of the reading, so it must still see the real reading every time and
// its mutation must be what CollectData returns — the bad-data arm of
// Figure 6 injects its faults through this seam.
func TestCorruptorSeesAndMutatesEverySample(t *testing.T) {
	m, _ := steadyModel(t)
	clean, _ := m.CollectData()
	if clean.Util != 2 || clean.Granted != 8 {
		t.Fatalf("clean reading = %+v, want Util 2 / Granted 8", clean)
	}
	var seen []Sample
	m.SetCorruptor(func(s *Sample) {
		seen = append(seen, *s)
		s.Util = -3
		s.Granted = 1
	})
	for i := 0; i < 10; i++ {
		got, err := m.CollectData()
		if err != nil {
			t.Fatal(err)
		}
		if got.Util != -3 || got.Granted != 1 {
			t.Fatalf("sample %d: corruptor's mutation lost: %+v", i, got)
		}
		if got.At != clean.At || got.Unmet != clean.Unmet {
			t.Fatalf("sample %d: untouched fields changed: %+v", i, got)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("corruptor saw %d of 10 samples", len(seen))
	}
	for i, s := range seen {
		if s != clean {
			t.Fatalf("sample %d: corruptor saw %+v, want the real reading %+v", i, s, clean)
		}
	}
	m.SetCorruptor(nil)
	if got, _ := m.CollectData(); got != clean {
		t.Fatalf("after clearing the corruptor: %+v, want %+v", got, clean)
	}
}

func TestValidateDataSentinels(t *testing.T) {
	m, _ := steadyModel(t)
	for _, tc := range []struct {
		name string
		s    Sample
		want error
	}{
		{"negative usage", Sample{Util: -1, Granted: 8}, ErrUsageRange},
		{"usage above allocation", Sample{Util: 9, Granted: 8}, ErrUsageRange},
		{"censored", Sample{Util: 4, Granted: 4}, ErrCensored},
		{"full allocation", Sample{Util: 8, Granted: 8}, ErrFullAllocation},
		{"valid", Sample{Util: 3, Granted: 8}, nil},
	} {
		err := m.ValidateData(tc.s)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		for _, other := range []error{ErrUsageRange, ErrCensored, ErrFullAllocation} {
			if other != tc.want && errors.Is(err, other) {
				t.Errorf("%s: err = %v also matches %v", tc.name, err, other)
			}
		}
	}
	if _, err := m.Predict(); !errors.Is(err, errNoFeatures) {
		t.Errorf("Predict before any epoch: err = %v, want %v", err, errNoFeatures)
	}
}
