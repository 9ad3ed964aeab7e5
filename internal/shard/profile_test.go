package shard

import (
	"reflect"
	"testing"
	"time"

	"sol/internal/obs"
)

// profiledConfig is a 12-cell, 3-shard conductor with a no-op advance
// and profiling on.
func profiledConfig(workers int) Config {
	return Config{
		Cells:   12,
		Shards:  3,
		Workers: workers,
		Advance: func(cell int, d time.Duration) {},
		Profile: true,
	}
}

// driveProfiledSchedule runs a fixed two-span schedule: a stepped span
// (cells 0 and 1 of each shard's range stepped over 3 epochs with an
// align observer) followed by a pure free-run span.
func driveProfiledSchedule(t *testing.T, c *Conductor) {
	t.Helper()
	err := c.Run(Span{
		Until:    30 * time.Millisecond,
		Interval: 10 * time.Millisecond,
		Stepped: func(s int) []int {
			lo, _ := c.Cells(s)
			return []int{lo, lo + 1}
		},
		OnEpoch: func(s, epoch int, at, step time.Duration) {},
	})
	if err != nil {
		t.Fatalf("stepped span: %v", err)
	}
	if err := c.Run(Span{Until: 50 * time.Millisecond}); err != nil {
		t.Fatalf("free span: %v", err)
	}
}

// TestConductorProfileCounts pins the deterministic half of the
// conductor's profile: the phase counts derive purely from the span
// schedule and the cell partition, so they are exact — and identical
// across worker widths (the determinism split's byte-identity side).
func TestConductorProfileCounts(t *testing.T) {
	t.Parallel()
	var profiles []*obs.Profile
	for _, workers := range []int{1, 4, 12} {
		c, err := New(profiledConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !c.Probe().Profiling() {
			t.Fatal("Config.Profile set but Profiling() is false")
		}
		driveProfiledSchedule(t, c)
		profiles = append(profiles, c.Probe().Profile())
	}

	// Each of 3 shards: span 1 steps 2 cells x 3 epochs and free-runs
	// its other 2 cells; span 2 free-runs all 4 cells.
	want := obs.ShardCounts{Spans: 2, Epochs: 3, SteppedAdvances: 6, FreeAdvances: 6}
	for s, sp := range profiles[0].Shards {
		if sp.Counts != want {
			t.Errorf("shard %d counts = %+v, want %+v", s, sp.Counts, want)
		}
	}
	base := profiles[0].Deterministic()
	for i, p := range profiles[1:] {
		if !reflect.DeepEqual(p.Deterministic(), base) {
			t.Errorf("profile counts differ across worker widths (run %d):\ngot  %+v\nwant %+v",
				i+1, p.Deterministic(), base)
		}
	}
}

// TestConductorProfileDisabled checks the off switch: no probe and a
// nil profile.
func TestConductorProfileDisabled(t *testing.T) {
	t.Parallel()
	cfg := profiledConfig(2)
	cfg.Profile = false
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Probe() != nil {
		t.Error("probe built with Config.Profile and Config.Trace off")
	}
	driveProfiledSchedule(t, c)
	if p := c.Probe().Profile(); p != nil {
		t.Errorf("Profile() = %+v, want nil when disabled", p)
	}
}

// TestProfiledSpanAllocs proves profiling adds zero allocations to a
// span: the per-span cost with profiling on is clock reads and counter
// adds only, so a profiled free-run span allocates exactly what an
// unprofiled one does. Workers 1 keeps ForEach inline so goroutine
// machinery doesn't muddy the measurement.
func TestProfiledSpanAllocs(t *testing.T) {
	measure := func(profile bool) float64 {
		c, err := New(Config{
			Cells:   8,
			Shards:  2,
			Workers: 1,
			Advance: func(cell int, d time.Duration) {},
			Profile: profile,
		})
		if err != nil {
			t.Fatal(err)
		}
		until := time.Duration(0)
		return testing.AllocsPerRun(200, func() {
			until += time.Millisecond
			_ = c.Run(Span{Until: until})
		})
	}
	off, on := measure(false), measure(true)
	if on != off {
		t.Fatalf("profiled span allocates %v, unprofiled %v — profiling must add 0", on, off)
	}
}

// spin burns about d of wall time without sleeping, so every phase of
// a span takes measurable time.
func spin(d time.Duration) {
	for end := obs.Now() + int64(d); obs.Now() < end; {
	}
}

// TestProbeViewsAgree: the profile and the trace consume one stream of
// transitions, so for every shard the summed extent of its spans on
// its trace track equals its profiled busy time, to the nanosecond.
func TestProbeViewsAgree(t *testing.T) {
	t.Parallel()
	c, err := New(Config{
		Cells:   9,
		Shards:  3,
		Workers: 3,
		Advance: func(cell int, d time.Duration) { spin(20 * time.Microsecond) },
		Profile: true,
		Trace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(Span{Until: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	err = c.Run(Span{
		Until:    40 * time.Millisecond,
		Interval: 10 * time.Millisecond,
		Stepped: func(s int) []int {
			lo, _ := c.Cells(s)
			return []int{lo}
		},
		OnEpoch: func(s, epoch int, at, step time.Duration) { spin(20 * time.Microsecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, tr := c.Probe().Profile(), c.Probe().Trace()
	for s := 0; s < c.Shards(); s++ {
		var extent, begin int64
		for _, ev := range tr.Track(s) {
			switch ev.Kind {
			case obs.EvSpanBegin:
				begin = ev.Wall
			case obs.EvSpanEnd:
				extent += ev.Wall - begin
			}
		}
		sp := prof.Shards[s]
		if busy := sp.BusyNS(); extent != busy || busy <= 0 {
			t.Errorf("shard %d: trace extent %d ns, profiled busy %d ns (step %d, free %d, align %d)",
				s, extent, busy, sp.StepNS, sp.FreeNS, sp.AlignNS)
		}
	}
}
