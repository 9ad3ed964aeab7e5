package harvest

import (
	"errors"
	"testing"
	"time"

	"sol/internal/core"
	"sol/internal/node"
	"sol/internal/testutil"
)

// samplePath is what core's collectStep does with one sample.
func samplePath(m *Model) error {
	s, _ := m.CollectData()
	err := m.ValidateData(s)
	if err == nil {
		m.CommitData(time.Time{}, s)
	}
	return err
}

// steadyModel is a Model sized for sched on a node whose primary VM has
// just run one tick of a steady 2-core demand.
func steadyModel(t *testing.T, sched core.Schedule) (*Model, *node.Node) {
	t.Helper()
	clk, n, _ := harvestNode(t, &steppedLoad{low: 2, high: 2, phase: time.Hour})
	m := new(Model)
	if err := m.init(n, DefaultConfig("primary", "elastic"), sched); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(time.Millisecond)
	return m, n
}

// TestSamplePathAllocs pins the Model loop at arithmetic only: from the
// second sample on, a sample committed, rejected or passed through a
// corruptor allocates nothing, and neither does closing an epoch. The
// epoch's buffers are sized from the schedule when the Model is built,
// so nothing but the first sample runs uncounted.
func TestSamplePathAllocs(t *testing.T) {
	per := Schedule().DataPerEpoch

	t.Run("accept", func(t *testing.T) {
		m, _ := steadyModel(t, Schedule())
		if err := samplePath(m); err != nil {
			t.Fatalf("steady sample rejected: %v", err)
		}
		if n := testutil.Mallocs(t, func() {
			for i := 1; i < per; i++ {
				if err := samplePath(m); err != nil {
					t.Fatalf("steady sample rejected: %v", err)
				}
			}
		}); n != 0 {
			t.Fatalf("samples 2..%d of an epoch allocate %d times, want 0", per, n)
		}
	})

	t.Run("reject", func(t *testing.T) {
		m, n := steadyModel(t, Schedule())
		// 2 cores used of 2 granted: demand is censored.
		if err := n.SetAvailableCores("primary", 2); err != nil {
			t.Fatal(err)
		}
		_ = samplePath(m)
		if got := testutil.Mallocs(t, func() {
			for i := 0; i < 2*per; i++ {
				if err := samplePath(m); err != ErrCensored {
					t.Fatalf("censored sample: err = %v", err)
				}
			}
		}); got != 0 {
			t.Fatalf("%d rejected samples allocate %d times, want 0", 2*per, got)
		}
	})

	t.Run("corruptor", func(t *testing.T) {
		m, _ := steadyModel(t, Schedule())
		seen := 0
		m.SetCorruptor(func(s *Sample) {
			seen++
			if seen%2 == 0 {
				s.Util = -3
			}
		})
		_ = samplePath(m)
		if n := testutil.Mallocs(t, func() {
			for i := 1; i < per; i++ {
				_ = samplePath(m)
			}
		}); n != 0 {
			t.Fatalf("corrupted sample path allocates %d times, want 0", n)
		}
		if seen != per {
			t.Fatalf("corruptor saw %d samples of %d", seen, per)
		}
	})

	t.Run("epoch", func(t *testing.T) {
		sched := Schedule()
		sched.DataPerEpoch = 25 // the fleet's coarsened epoch
		m, _ := steadyModel(t, sched)
		if err := samplePath(m); err != nil {
			t.Fatalf("steady sample rejected: %v", err)
		}
		committed := 1
		const epochs = 50
		if n := testutil.Mallocs(t, func() {
			for e := 0; e < epochs; e++ {
				for ; committed < sched.DataPerEpoch; committed++ {
					if err := samplePath(m); err != nil {
						t.Fatalf("steady sample rejected: %v", err)
					}
				}
				committed = 0
				m.UpdateModel()
				if _, err := m.Predict(); err != nil {
					t.Fatal(err)
				}
			}
		}); n != 0 {
			t.Fatalf("%d epochs after the first sample allocate %d times, want 0", epochs, n)
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
	m, _ := steadyModel(t, Schedule())
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
		if got.Unmet != clean.Unmet {
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
	m, _ := steadyModel(t, Schedule())
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

// TestStartAllocs pins one launch: the Agent — Model, Actuator and
// runtime in one object — plus the classifier's regressor slice and
// weight slab, the slab holding the samples and the cost vector, and
// the under-prediction and vCPU-wait windows. The runtime's prediction
// queue is inline.
func TestStartAllocs(t *testing.T) {
	clk, n, _ := harvestNode(t, &steppedLoad{low: 2, high: 2, phase: time.Hour})
	var ag *Agent
	got := testutil.Mallocs(t, func() {
		var err error
		if ag, err = start(clk, n, DefaultConfig("primary", "elastic"), Schedule(), core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	defer ag.Stop()
	if got != 6 {
		t.Fatalf("one launch allocates %d objects, want 6", got)
	}
}
