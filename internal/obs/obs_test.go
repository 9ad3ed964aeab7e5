package obs

import (
	"reflect"
	"testing"
)

// TestProfilerAccumulation drives the probe's profile view through two
// spans by hand and checks every bucket: counts land exactly where the
// schedule says, wall times are non-negative and attributed to the
// right phase, and busy plus wait is the whole attributed wall time.
func TestProfilerAccumulation(t *testing.T) {
	t.Parallel()
	p := NewProbe([]int{0, 5, 9}, true, false)
	if !p.Profiling() {
		t.Fatal("NewProbe with profile on is not profiling")
	}

	// Span 1: shard 0 free-runs 5 cells; shard 1 steps 2 cells for 3
	// epochs with an align observer.
	p.Launch()
	p.End(0, 30, p.Free(0, 5, p.Begin(0, 0)))
	tok := p.Begin(1, 0)
	for e := 1; e <= 3; e++ {
		tok = p.Step(1, 2, int64(10*e), e, tok)
		tok = p.Align(1, tok)
	}
	p.End(1, 30, tok)
	p.Barrier(30)

	// Span 2: both shards free-run.
	p.Launch()
	for s := 0; s < 2; s++ {
		p.End(s, 50, p.Free(s, 4, p.Begin(s, 30)))
	}
	p.Barrier(50)

	prof := p.Profile()
	wantCounts := []ShardCounts{
		{Spans: 2, FreeAdvances: 9},
		{Spans: 2, Epochs: 3, SteppedAdvances: 6, FreeAdvances: 4},
	}
	for s, want := range wantCounts {
		if got := prof.Shards[s].Counts; got != want {
			t.Errorf("shard %d counts = %+v, want %+v", s, got, want)
		}
	}
	if prof.Spans() != 2 {
		t.Errorf("Spans() = %d, want 2", prof.Spans())
	}
	for s := range prof.Shards {
		sp := prof.Shards[s]
		if sp.StepNS < 0 || sp.FreeNS < 0 || sp.AlignNS < 0 || sp.BarrierNS < 0 {
			t.Errorf("shard %d has negative wall time: %+v", s, sp)
		}
		if sp.WallNS() != sp.BusyNS()+sp.BarrierNS {
			t.Errorf("shard %d wall != busy + wait", s)
		}
	}
	if prof.Shards[0].StepNS != 0 {
		t.Errorf("shard 0 never stepped but StepNS = %d", prof.Shards[0].StepNS)
	}
	if prof.ConductorAlignNS < 0 {
		t.Errorf("ConductorAlignNS = %d, want >= 0", prof.ConductorAlignNS)
	}
}

// TestProfilerNilSafe proves the disabled probe (nil) is a complete
// no-op on every method — the zero-hot-path-cost contract — and that a
// trace-only probe serves no profile.
func TestProfilerNilSafe(t *testing.T) {
	t.Parallel()
	var p *Probe
	if p.Profiling() {
		t.Fatal("nil probe reports profiling")
	}
	p.Launch()
	tok := p.Begin(0, 0)
	for _, got := range []int64{tok, p.Free(0, 3, tok), p.Step(0, 3, 1, 1, tok), p.Align(0, tok)} {
		if got != 0 {
			t.Fatalf("nil probe returned token %d, want 0", got)
		}
	}
	p.End(0, 1, tok)
	p.Barrier(1)
	if p.Profile() != nil {
		t.Fatal("nil Profile() != nil")
	}
	if NewProbe([]int{0, 1}, false, false) != nil {
		t.Fatal("NewProbe with both views off is not nil")
	}
	tr := NewProbe([]int{0, 1}, false, true)
	tr.End(0, 1, tr.Free(0, 1, tr.Begin(0, 0)))
	tr.Barrier(1)
	if tr.Profiling() || tr.Profile() != nil {
		t.Fatal("trace-only probe serves a profile")
	}
}

// fixedProfile is a hand-built two-shard profile with round numbers,
// shared by the arithmetic and rendering tests.
func fixedProfile() *Profile {
	return &Profile{
		Shards: []ShardProfile{
			{Shard: 0, Counts: ShardCounts{Spans: 3, Epochs: 10, SteppedAdvances: 20, FreeAdvances: 5},
				StepNS: 4e6, FreeNS: 2e6, AlignNS: 1e6, BarrierNS: 3e6},
			{Shard: 1, Counts: ShardCounts{Spans: 3, Epochs: 10, SteppedAdvances: 30, FreeAdvances: 7},
				StepNS: 8e6, FreeNS: 1e6, AlignNS: 1e6, BarrierNS: 0},
		},
		ConductorAlignNS: 5e5,
	}
}

// TestProfileSummaryGolden pins the diagnostic rendering against fixed
// values — the only sanctioned way to byte-pin wall-time strings.
func TestProfileSummaryGolden(t *testing.T) {
	t.Parallel()
	p := fixedProfile()
	wantSummary := "step 12ms free 3ms align 2ms wait 3ms conduct 500µs — worst shard 1: busy 10ms, waits 0.0%"
	if got := p.Summary(); got != wantSummary {
		t.Errorf("Summary() = %q, want %q", got, wantSummary)
	}
	wantCounts := "2 shard(s), 3 span(s), 20 epoch(s), 50 stepped + 12 free advances"
	if got := p.CountsLine(); got != wantCounts {
		t.Errorf("CountsLine() = %q, want %q", got, wantCounts)
	}
	if w := p.WorstShard(); w != 1 {
		t.Errorf("WorstShard() = %d, want 1", w)
	}
	if f := p.Shards[0].WaitFrac(); f != 0.3 {
		t.Errorf("shard 0 WaitFrac() = %v, want 0.3", f)
	}
	empty := &Profile{}
	if got := empty.Summary(); got != "empty" {
		t.Errorf("empty Summary() = %q", got)
	}
}

// TestDelta checks wave-delta arithmetic: cur − prev per shard and on
// the conductor counter, with nil/mismatched prev degrading to a copy.
func TestDelta(t *testing.T) {
	t.Parallel()
	prev := fixedProfile()
	cur := fixedProfile()
	cur.Shards[0].Counts.Epochs += 4
	cur.Shards[0].StepNS += 7e6
	cur.Shards[1].BarrierNS += 2e6
	cur.ConductorAlignNS += 1e6

	d := Delta(cur, prev)
	if d.Shards[0].Counts.Epochs != 4 || d.Shards[0].StepNS != 7e6 {
		t.Errorf("shard 0 delta = %+v", d.Shards[0])
	}
	if d.Shards[1].BarrierNS != 2e6 || d.Shards[1].StepNS != 0 {
		t.Errorf("shard 1 delta = %+v", d.Shards[1])
	}
	if d.ConductorAlignNS != 1e6 {
		t.Errorf("conductor delta = %d", d.ConductorAlignNS)
	}
	if got := Delta(cur, nil); !reflect.DeepEqual(got, &Profile{Shards: cur.Shards, ConductorAlignNS: cur.ConductorAlignNS}) {
		t.Error("Delta(cur, nil) is not a copy of cur")
	}
	if Delta(nil, prev) != nil {
		t.Error("Delta(nil, prev) != nil")
	}
}

// TestDeterministic checks the byte-identity projection: counts
// survive, every wall field is zeroed.
func TestDeterministic(t *testing.T) {
	t.Parallel()
	p := fixedProfile()
	d := p.Deterministic()
	for s := range d.Shards {
		if d.Shards[s].Counts != p.Shards[s].Counts {
			t.Errorf("shard %d counts changed", s)
		}
		if d.Shards[s].StepNS|d.Shards[s].FreeNS|d.Shards[s].AlignNS|d.Shards[s].BarrierNS != 0 {
			t.Errorf("shard %d wall fields not zeroed: %+v", s, d.Shards[s])
		}
	}
	if d.ConductorAlignNS != 0 {
		t.Errorf("ConductorAlignNS not zeroed")
	}
	var nilP *Profile
	if nilP.Deterministic() != nil {
		t.Error("nil Deterministic() != nil")
	}
}

// TestProfilerRecordAllocs proves the profile view accumulates without
// allocating per sample.
func TestProfilerRecordAllocs(t *testing.T) {
	if allocs := probeAllocs(NewProbe([]int{0, 2, 4}, true, false)); allocs != 0 {
		t.Fatalf("profile-only probe allocates %v per transition batch, want 0", allocs)
	}
}
