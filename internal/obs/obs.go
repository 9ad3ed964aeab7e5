// Package obs is the fleet's self-observation layer. The sharded
// conductor reports every span transition exactly once, to one Probe:
// a shard beginning its stretch of a span, finishing its free run,
// finishing a stepped epoch, finishing an align observer, ending its
// stretch; the conductor launching a span and passing its barrier.
// Two views consume that single stream:
//
//   - The profile (Profile) attributes each shard's wall time to
//     stepping observed cells, free-running the rest, running
//     alignment observers, or waiting at barriers. The motivation is
//     the blocked-samples insight: the conductor's cost is dominated by
//     waiting — the off-CPU time an on-CPU profile misses — so wait is
//     measured as a first-class phase rather than inferred.
//   - The trace (Trace, trace.go) records the same transitions as
//     events stamped with sim-time, beside campaign decisions, node
//     lifecycle transitions and heap samples.
//
// Each transition reads the wall clock once and hands that reading on
// as the next phase's start token, and the trace stamps events with
// the same readings, so the views agree to the nanosecond: a shard's
// span extent on its trace track equals its profiled busy time. Setup
// before Begin and lifecycle drains in End are charged to no phase.
//
// # Determinism split
//
// A Profile carries two kinds of data with different contracts:
//
//   - Counts (ShardCounts: spans, epochs, stepped/free advances) are
//     derived purely from the span schedule and the cell partition.
//     They are deterministic — byte-identical across runs, worker
//     widths, and machines — and are safe to assert in golden tests.
//   - Wall-time fields (the *NS fields) are diagnostic only. They vary
//     run to run and MUST NEVER feed back into simulation decisions;
//     the sanctioned consumer is a human looking at a finished run.
//     Deterministic() strips them for byte-identity tests.
//
// A Trace splits the same way (see trace.go).
//
// # Concurrency
//
// The probe is lock-free by construction, not by atomics: each shard's
// slot (counts, phase times, event ring) is written only by the
// goroutine advancing that shard during a span (the conductor's
// ForEach hands a shard to exactly one worker), and the slots are
// padded so neighbouring shards never share a cache line. The
// conductor reads the slots only at alignment points, after the span
// barrier's WaitGroup edge — the same happens-before contract the
// simulation state itself relies on. Disabled observation is a nil
// *Probe; every method is nil-safe and costs one branch, so the hot
// path pays nothing when off.
//
// obs is the sanctioned wall-clock boundary for the simulation
// packages, the diagnostics counterpart of internal/clock's virtual
// time: sim code never calls time.Now directly (sollint's walltime
// analyzer enforces it); it reports transitions to a Probe, which
// reads obs.Now.
package obs

import (
	"fmt"
	"strings"
	"time"
)

// processStart anchors Now. Reading time.Since against a fixed base
// yields the monotonic reading as a plain int64, which accumulates and
// subtracts without allocation or calendar conversions.
var processStart = time.Now()

// Now returns monotonic wall nanoseconds since process start — the
// probe's clock. Only ever used for diagnostic attribution; never
// for simulation decisions.
func Now() int64 { return int64(time.Since(processStart)) }

// Phase is one attribution bucket of a shard's wall time.
type Phase int

const (
	// PhaseStep is time advancing stepped (observed) cells epoch by
	// epoch.
	PhaseStep Phase = iota
	// PhaseFree is time free-running unobserved cells straight to the
	// next alignment.
	PhaseFree
	// PhaseAlign is time in the caller's OnEpoch observers — shard-local
	// alignment work (health polls, bookkeeping).
	PhaseAlign
	// PhaseBarrier is time the shard spent finished-but-waiting for the
	// rest of the fleet to reach the span barrier: the off-CPU cost an
	// on-CPU profile misses.
	PhaseBarrier
	// NumPhases bounds the phase enum.
	NumPhases
)

// String names the phase as rendered in reports.
func (p Phase) String() string {
	switch p {
	case PhaseStep:
		return "step"
	case PhaseFree:
		return "free"
	case PhaseAlign:
		return "align"
	case PhaseBarrier:
		return "wait"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// ProfileVersion guards the JSON shape of Profile, ShardProfile, and
// ShardCounts. Profiles ride inside the versioned fleet report and the
// metrics export, so any field change here is a wire change there —
// bump this and the wirelock together.
const ProfileVersion = 1

// ShardCounts are the deterministic half of a shard's profile: how
// many spans the shard ran, how many stepped epochs it walked, and how
// many per-cell advance calls each mode issued. These depend only on
// the span schedule and the cell partition — never on timing — so they
// are byte-identical across runs and worker widths and safe to pin in
// golden tests.
//
//sollint:wire ProfileVersion
type ShardCounts struct {
	Spans           int `json:"spans"`
	Epochs          int `json:"epochs"`
	SteppedAdvances int `json:"stepped_advances"`
	FreeAdvances    int `json:"free_advances"`
}

func (c *ShardCounts) add(o ShardCounts) {
	c.Spans += o.Spans
	c.Epochs += o.Epochs
	c.SteppedAdvances += o.SteppedAdvances
	c.FreeAdvances += o.FreeAdvances
}

func (c *ShardCounts) sub(o ShardCounts) {
	c.Spans -= o.Spans
	c.Epochs -= o.Epochs
	c.SteppedAdvances -= o.SteppedAdvances
	c.FreeAdvances -= o.FreeAdvances
}

// ShardProfile is one shard's finished attribution: deterministic
// counts plus diagnostic wall time per phase.
//
//sollint:wire ProfileVersion
type ShardProfile struct {
	Shard  int         `json:"shard"`
	Counts ShardCounts `json:"counts"`
	// StepNS/FreeNS/AlignNS/BarrierNS are wall nanoseconds per phase —
	// diagnostic only (see the package's determinism split).
	StepNS    int64 `json:"step_ns"`
	FreeNS    int64 `json:"free_ns"`
	AlignNS   int64 `json:"align_ns"`
	BarrierNS int64 `json:"barrier_ns"`
}

// BusyNS is the shard's productive wall time: everything but waiting.
func (s ShardProfile) BusyNS() int64 { return s.StepNS + s.FreeNS + s.AlignNS }

// WallNS is the shard's total attributed wall time.
func (s ShardProfile) WallNS() int64 { return s.BusyNS() + s.BarrierNS }

// WaitFrac is the fraction of the shard's attributed wall time spent
// waiting at barriers; 0 when nothing was attributed.
func (s ShardProfile) WaitFrac() float64 {
	w := s.WallNS()
	if w <= 0 {
		return 0
	}
	return float64(s.BarrierNS) / float64(w)
}

// Profile is a whole run's (or one wave's) attribution across shards.
//
//sollint:wire ProfileVersion
type Profile struct {
	Shards []ShardProfile `json:"shards"`
	// ConductorAlignNS is wall time spent on the conductor's own
	// goroutine between spans — fleet-wide alignment work (gate
	// judgements, wave deploys, report aggregation) that no shard can
	// be billed for.
	ConductorAlignNS int64 `json:"conductor_align_ns"`
}

// Spans returns the aligned span count — equal across shards, since
// every shard participates in every span.
func (p *Profile) Spans() int {
	n := 0
	for i := range p.Shards {
		if s := p.Shards[i].Counts.Spans; s > n {
			n = s
		}
	}
	return n
}

// Totals sums the per-shard profiles (Shard is -1 on the result).
func (p *Profile) Totals() ShardProfile {
	t := ShardProfile{Shard: -1}
	for i := range p.Shards {
		s := &p.Shards[i]
		t.Counts.add(s.Counts)
		t.StepNS += s.StepNS
		t.FreeNS += s.FreeNS
		t.AlignNS += s.AlignNS
		t.BarrierNS += s.BarrierNS
	}
	return t
}

// WorstShard returns the index (into Shards) of the straggler: the
// shard with the most busy wall time, whose pace every barrier waits
// for. Ties break to the lower index; -1 when the profile is empty.
func (p *Profile) WorstShard() int {
	w, best := -1, int64(-1)
	for i := range p.Shards {
		if b := p.Shards[i].BusyNS(); b > best {
			w, best = i, b
		}
	}
	return w
}

// Summary renders the fleet-wide attribution on one line: total wall
// time per phase, then the straggler shard and its wait fraction. Wall
// times vary run to run; only pin this string in tests against a
// hand-built Profile.
func (p *Profile) Summary() string {
	t := p.Totals()
	w := p.WorstShard()
	if w < 0 {
		return "empty"
	}
	ws := p.Shards[w]
	var b strings.Builder
	fmt.Fprintf(&b, "step %v free %v align %v wait %v conduct %v — worst shard %d: busy %v, waits %.1f%%",
		ns(t.StepNS), ns(t.FreeNS), ns(t.AlignNS), ns(t.BarrierNS), ns(p.ConductorAlignNS),
		ws.Shard, ns(ws.BusyNS()), ws.WaitFrac()*100)
	return b.String()
}

// CountsLine renders the deterministic half of the profile — safe to
// pin byte for byte in golden tests and byte-identity comparisons.
func (p *Profile) CountsLine() string {
	t := p.Totals()
	return fmt.Sprintf("%d shard(s), %d span(s), %d epoch(s), %d stepped + %d free advances",
		len(p.Shards), p.Spans(), t.Counts.Epochs, t.Counts.SteppedAdvances, t.Counts.FreeAdvances)
}

func ns(v int64) time.Duration { return time.Duration(v) }

// Deterministic returns a copy with every wall-clock field zeroed,
// leaving only the counts — the half of the profile the determinism
// contract covers. Byte-identity tests compare this, never the raw
// profile.
func (p *Profile) Deterministic() *Profile {
	if p == nil {
		return nil
	}
	out := &Profile{Shards: make([]ShardProfile, len(p.Shards))}
	for i := range p.Shards {
		out.Shards[i] = ShardProfile{Shard: p.Shards[i].Shard, Counts: p.Shards[i].Counts}
	}
	return out
}

// Delta returns cur − prev per shard — the attribution of just the
// stretch between two snapshots (one campaign wave, say). A nil or
// shape-mismatched prev yields a copy of cur.
func Delta(cur, prev *Profile) *Profile {
	if cur == nil {
		return nil
	}
	out := &Profile{
		Shards:           append([]ShardProfile(nil), cur.Shards...),
		ConductorAlignNS: cur.ConductorAlignNS,
	}
	if prev == nil || len(prev.Shards) != len(cur.Shards) {
		return out
	}
	out.ConductorAlignNS -= prev.ConductorAlignNS
	for i := range out.Shards {
		s, o := &out.Shards[i], &prev.Shards[i]
		s.Counts.sub(o.Counts)
		s.StepNS -= o.StepNS
		s.FreeNS -= o.FreeNS
		s.AlignNS -= o.AlignNS
		s.BarrierNS -= o.BarrierNS
	}
	return out
}
