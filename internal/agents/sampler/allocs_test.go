package sampler

import (
	"errors"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/telemetry"
	"sol/internal/testutil"
)

func newTestModel(t *testing.T) (*clock.Virtual, *Model) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	src := telemetry.MustNew(clk, telemetry.DefaultConfig())
	src.Start()
	m := new(Model)
	if err := m.init(src, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return clk, m
}

// samplePath is what core's collectStep does with one sample, after
// advancing the source one sampling interval.
func samplePath(clk *clock.Virtual, m *Model) error {
	clk.RunFor(100 * time.Millisecond)
	o, err := m.CollectData()
	if err != nil {
		return err
	}
	if err = m.ValidateData(o); err == nil {
		m.CommitData(o.At, o)
	}
	return err
}

// TestSamplePathAllocs pins the Model loop's cost per interval at
// arithmetic only, committed or rejected. Closing an epoch allocates
// nothing in UpdateModel; Predict allocates exactly the Allocation's
// channel list, which crosses to the Actuator loop and is held there
// and in the prediction queue, whose depth is the operator's — the
// Model cannot take it back.
func TestSamplePathAllocs(t *testing.T) {
	t.Run("accept", func(t *testing.T) {
		clk, m := newTestModel(t)
		if avg := testing.AllocsPerRun(200, func() {
			if err := samplePath(clk, m); err != nil {
				t.Fatalf("interval rejected: %v", err)
			}
		}); avg != 0 {
			t.Fatalf("accepted interval allocates %.1f times, want 0", avg)
		}
	})

	t.Run("reject", func(t *testing.T) {
		_, m := newTestModel(t)
		bad := Obs{Counts: []ChannelCount{{Channel: 2, Count: 3}, {Channel: 5, Count: -1}}}
		if avg := testing.AllocsPerRun(200, func() {
			if err := m.ValidateData(bad); err != ErrCountRange {
				t.Fatalf("corrupted counts: err = %v", err)
			}
		}); avg != 0 {
			t.Fatalf("rejecting an interval allocates %.1f times, want 0", avg)
		}
	})

	t.Run("epoch", func(t *testing.T) {
		clk, m := newTestModel(t)
		epoch := func() {
			for i := 0; i < Schedule().DataPerEpoch; i++ {
				if err := samplePath(clk, m); err != nil {
					t.Fatalf("interval rejected: %v", err)
				}
			}
			m.UpdateModel()
			if _, err := m.Predict(); err != nil {
				t.Fatal(err)
			}
		}
		epoch()
		if avg := testing.AllocsPerRun(20, epoch); avg != 1 {
			t.Fatalf("steady-state epoch allocates %.1f times, want 1 (the Allocation's channel list)", avg)
		}
	})
}

func TestValidateDataSentinel(t *testing.T) {
	_, m := newTestModel(t)
	for _, bad := range []Obs{
		{Counts: []ChannelCount{{Channel: 0, Count: -1}}},
		{Counts: []ChannelCount{{Channel: 0, Count: 2_000_000}}},
		{AuditCount: -1},
		{AuditCount: 2_000_000},
	} {
		if err := m.ValidateData(bad); !errors.Is(err, ErrCountRange) {
			t.Errorf("%+v: err = %v, want %v", bad, err, ErrCountRange)
		}
	}
}

// TestCollectDataFollowsAllocation: the observation lists exactly the
// allocated channels other than the audit channel, in allocation order,
// and committing it credits those channels' epoch counts.
func TestCollectDataFollowsAllocation(t *testing.T) {
	clk, m := newTestModel(t)
	clk.RunFor(100 * time.Millisecond)
	o, err := m.CollectData()
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, ch := range m.alloc {
		if ch != m.audit {
			want = append(want, ch)
		}
	}
	if len(o.Counts) != len(want) {
		t.Fatalf("observed %d channels, want %d (%v)", len(o.Counts), len(want), want)
	}
	total := o.AuditCount
	for i, c := range o.Counts {
		if c.Channel != want[i] {
			t.Fatalf("Counts[%d] is channel %d, want %d", i, c.Channel, want[i])
		}
		total += c.Count
	}
	m.CommitData(o.At, o)
	committed := 0
	for _, n := range m.epochCounts {
		committed += n
	}
	if committed != total {
		t.Fatalf("committed %d events, observed %d", committed, total)
	}
}

// TestAllocationSequencePinned pins the model's draws: six epochs from
// the default seed issue exactly the allocations and audit channels
// recorded when each channel's bandit was built one by one from
// successive rng.Split() draws. The bank must take the same draws from
// the model's generator in the same order, or every later posterior
// sample — and so every allocation — shifts.
func TestAllocationSequencePinned(t *testing.T) {
	want := []struct {
		channels [4]int
		audit    int
	}{
		{[4]int{15, 0, 4, 1}, 0},
		{[4]int{6, 0, 12, 2}, 1},
		{[4]int{5, 13, 0, 3}, 6},
		{[4]int{12, 0, 4, 5}, 6},
		{[4]int{8, 10, 12, 6}, 5},
		{[4]int{11, 0, 12, 7}, 12},
	}
	clk, m := newTestModel(t)
	for e, w := range want {
		for i := 0; i < DefaultConfig().EpochIntervals; i++ {
			if err := samplePath(clk, m); err != nil {
				t.Fatalf("epoch %d interval %d rejected: %v", e, i, err)
			}
		}
		m.UpdateModel()
		p, err := m.Predict()
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Value.Channels; len(got) != len(w.channels) || [4]int(got) != w.channels || m.audit != w.audit {
			t.Fatalf("epoch %d: allocation %v audit %d, want %v audit %d", e, got, m.audit, w.channels, w.audit)
		}
	}
}

// TestStartAllocs pins one launch: the Agent — Model, Actuator and
// runtime in one object — plus the bandit bank's two slabs, the epoch
// counts, the sample and draw scratch, and the model's and the
// actuator's round-robin allocations. The runtime's prediction queue
// is inline.
func TestStartAllocs(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	src := telemetry.MustNew(clk, telemetry.DefaultConfig())
	src.Start()
	var ag *Agent
	got := testutil.Mallocs(t, func() {
		var err error
		if ag, err = start(clk, src, DefaultConfig(), Schedule(), core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	defer ag.Stop()
	if got != 8 {
		t.Fatalf("one launch allocates %d objects, want 8", got)
	}
}
