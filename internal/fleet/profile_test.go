package fleet

import (
	"reflect"
	"testing"
	"time"

	"sol/internal/obs"
)

// profiledFleetConfig is the shared small fleet for profiling tests.
func profiledFleetConfig(workers int, profile bool) Config {
	return Config{
		Nodes:    12,
		Duration: 2 * time.Second,
		Workers:  workers,
		Shards:   3,
		Profile:  profile,
		Setup:    StandardNode(StandardNodeConfig{Seed: 21, Kinds: []string{"harvest", "overclock"}}),
	}
}

// stripProfile returns the report's string rendering with the profile
// detached — the projection the byte-identity contract covers.
func stripProfile(rep *Report) string {
	p := rep.Profile
	rep.Profile = nil
	s := rep.String()
	rep.Profile = p
	return s
}

// TestProfiledRunOutputIdentical is the no-feedback guarantee: a
// profiled stepped run produces byte-identical simulation output to an
// unprofiled run of the same config — wall-time attribution rides
// beside the report, never inside the simulation.
func TestProfiledRunOutputIdentical(t *testing.T) {
	t.Parallel()
	off, err := RunStepped(profiledFleetConfig(4, false), 250*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunStepped(profiledFleetConfig(4, true), 250*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if off.Profile != nil {
		t.Fatal("unprofiled run carries a profile")
	}
	if on.Profile == nil {
		t.Fatal("profiled run carries no profile")
	}
	if got, want := stripProfile(on), off.String(); got != want {
		t.Fatalf("profiling changed the simulation output:\nprofiled:\n%s\nunprofiled:\n%s", got, want)
	}
}

// TestProfileCountsDeterministic pins the determinism split across the
// axes the contract names: the profile's counts are byte-identical
// across repeated runs and worker widths (wall times, excluded via
// Deterministic, are free to differ).
func TestProfileCountsDeterministic(t *testing.T) {
	t.Parallel()
	var dets []*obs.Profile
	for _, workers := range []int{1, 1, 4, 12} {
		rep, err := RunStepped(profiledFleetConfig(workers, true), 250*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		dets = append(dets, rep.Profile.Deterministic())
	}
	for i, d := range dets[1:] {
		if !reflect.DeepEqual(d, dets[0]) {
			t.Errorf("profile counts drifted (run %d):\ngot  %+v\nwant %+v", i+1, d, dets[0])
		}
	}
	// The stepped drive is 8 epochs of fleet-wide spans: every shard
	// steps all of its 4 nodes every epoch.
	want := obs.ShardCounts{Spans: 8, FreeAdvances: 32}
	for s, sp := range dets[0].Shards {
		if sp.Counts != want {
			t.Errorf("shard %d counts = %+v, want %+v", s, sp.Counts, want)
		}
	}
}

// TestBatchProfile covers Run with Profile set: it executes as one
// observer-less span of the conductor on cfg.Shards shards, so the
// profile is the conductor's native one — one span per shard, one free
// advance per node, busy time accumulated — and its counts match the
// one-span Coordinator run's, with the same no-feedback property.
func TestBatchProfile(t *testing.T) {
	t.Parallel()
	cfg := profiledFleetConfig(4, true)
	off := cfg
	off.Profile = false

	repOff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	repOn, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repOff.Profile != nil {
		t.Fatal("unprofiled batch run carries a profile")
	}
	p := repOn.Profile
	if p == nil || len(p.Shards) != cfg.Shards {
		t.Fatalf("batch profile = %+v, want %d shards", p, cfg.Shards)
	}
	stepped, err := RunStepped(cfg, cfg.Duration, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Deterministic(), stepped.Profile.Deterministic()) {
		t.Errorf("batch profile counts %+v differ from the one-span Coordinator run's %+v",
			p.Deterministic(), stepped.Profile.Deterministic())
	}
	want := obs.ShardCounts{Spans: 1, FreeAdvances: cfg.Nodes / cfg.Shards}
	for s, sp := range p.Shards {
		if sp.Counts != want {
			t.Errorf("shard %d batch counts = %+v, want %+v", s, sp.Counts, want)
		}
		if sp.FreeNS <= 0 {
			t.Errorf("shard %d batch busy time = %d, want > 0", s, sp.FreeNS)
		}
		if sp.BarrierNS < 0 {
			t.Errorf("shard %d batch wait = %d, want >= 0", s, sp.BarrierNS)
		}
	}
	if got, want := stripProfile(repOn), repOff.String(); got != want {
		t.Fatalf("profiling changed the batch output:\nprofiled:\n%s\nunprofiled:\n%s", got, want)
	}
}
