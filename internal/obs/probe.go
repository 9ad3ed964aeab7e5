package obs

import (
	"runtime"
	"sort"
)

// shardSlot is one shard's live probe state: the profile view's counts,
// phase times and finish stamp, and the trace view's event ring.
// During a span it is written only by the goroutine advancing that
// shard; the conductor reads it only after the span barrier. The pad
// rounds the slot to two cache lines so the single-writer discipline
// also means no false sharing.
type shardSlot struct {
	counts ShardCounts
	times  [NumPhases]int64
	finish int64 // End's finish stamp for the current span; consumed by Barrier
	ring   ring
	_      [16]byte
}

// Probe is the conductor's one instrumentation seam (see the package
// doc). Phase methods take the previous transition's token and return
// the next. A nil *Probe is the disabled probe: every method is
// nil-safe, allocates nothing and costs one branch, so the conductor
// threads one pointer unconditionally.
type Probe struct {
	slots   []shardSlot
	profile bool
	// cond is the conductor track. Its buf is nil when tracing is off,
	// which makes every record on any track a no-op.
	cond   ring
	bounds []int // shard s owns cells [bounds[s], bounds[s+1])
	// stages is the per-cell lifecycle staging, allocated by
	// EnableLifecycle only when tracing and a fault plan exists.
	stages []cellStage
	// heap holds the heap samples, one per Barrier plus one per Trace;
	// ms is reused across samples so sampling allocates nothing.
	heap []HeapSample
	ms   runtime.MemStats

	// Conductor-goroutine state: the instant the last span's barrier
	// completed, the sim-time it aligned the fleet at (0 before the
	// first span), and the accumulated between-spans (fleet alignment)
	// time. Only touched by Launch/Barrier, which run with no span in
	// flight.
	lastAlign int64
	alignedAt int64
	alignNS   int64
}

// NewProbe returns a probe for a conductor whose shard s owns cells
// [bounds[s], bounds[s+1]) — the bounds slice the conductor partitions
// with, which the probe keeps. profile turns on wall-time attribution
// (Profile), trace the flight recorder (Trace); with both off it
// returns nil.
func NewProbe(bounds []int, profile, trace bool) *Probe {
	if !profile && !trace {
		return nil
	}
	p := &Probe{slots: make([]shardSlot, len(bounds)-1), profile: profile, bounds: bounds}
	if trace {
		for i := range p.slots {
			p.slots[i].ring.buf = make([]Event, ringCap)
		}
		p.cond.buf = make([]Event, ringCap)
		p.heap = make([]HeapSample, 0, memWatchCap)
	}
	return p
}

// Begin opens shard's stretch of a span at sim-time at, on the shard's
// goroutine, and returns the first token.
func (p *Probe) Begin(shard int, at int64) int64 {
	if p == nil {
		return 0
	}
	now := Now()
	p.slots[shard].ring.record(Event{Kind: EvSpanBegin, Track: shard, At: at, Node: -1, Wall: now})
	return now
}

// Free charges the time since the token to shard's free-run phase,
// counting cells single-call advances, and returns the next token.
func (p *Probe) Free(shard, cells int, since int64) int64 {
	if p == nil {
		return 0
	}
	now := Now()
	sl := &p.slots[shard]
	sl.counts.FreeAdvances += cells
	sl.times[PhaseFree] += now - since
	return now
}

// Step charges the time since the token to shard's stepping phase,
// counting one epoch of cells stepped advances, and records the epoch
// barrier at sim-time at (epoch is 1-based within the span). It
// returns the next token.
func (p *Probe) Step(shard, cells int, at int64, epoch int, since int64) int64 {
	if p == nil {
		return 0
	}
	now := Now()
	sl := &p.slots[shard]
	sl.counts.Epochs++
	sl.counts.SteppedAdvances += cells
	sl.times[PhaseStep] += now - since
	sl.ring.record(Event{Kind: EvEpoch, Track: shard, At: at, Node: -1, Epoch: epoch, Wall: now})
	return now
}

// Align charges the time since the token to shard's align phase — the
// caller's OnEpoch observer — and returns the next token.
func (p *Probe) Align(shard int, since int64) int64 {
	if p == nil {
		return 0
	}
	now := Now()
	p.slots[shard].times[PhaseAlign] += now - since
	return now
}

// End closes shard's stretch of the span at sim-time at, stamped with
// the last token. It drains the shard's cells' staged lifecycle events
// into the shard's ring first: cells in index order, each cell's
// events in time order, so the drained sequence is deterministic. The
// finish stamp Barrier turns into wait is the last token, or, when a
// drain ran, the clock after it: drain time is bookkeeping, charged
// to no phase and not to barrier wait.
func (p *Probe) End(shard int, at, since int64) {
	if p == nil {
		return
	}
	sl := &p.slots[shard]
	sl.finish = since
	if p.stages != nil {
		p.drain(shard)
		sl.finish = Now()
	}
	sl.counts.Spans++
	sl.ring.record(Event{Kind: EvSpanEnd, Track: shard, At: at, Node: -1, Wall: since})
}

// Launch runs on the conductor goroutine as a span launches: the gap
// since the previous span's barrier is fleet-alignment work (deploys,
// gate judgements) and accrues to ConductorAlignNS.
func (p *Probe) Launch() {
	if p == nil {
		return
	}
	if p.lastAlign != 0 {
		p.alignNS += Now() - p.lastAlign
	}
}

// Barrier runs on the conductor goroutine after the span barrier, with
// the fleet aligned at sim-time at: each shard's finish-to-barrier gap
// is its wait for the rest of the fleet, the probe keeps at as the
// aligned instant Trace stamps, and a traced probe takes one heap
// sample. The WaitGroup edge of the barrier orders the shards'
// writes before these reads.
func (p *Probe) Barrier(at int64) {
	if p == nil {
		return
	}
	now := Now()
	for i := range p.slots {
		sl := &p.slots[i]
		if sl.finish != 0 {
			sl.times[PhaseBarrier] += now - sl.finish
			sl.finish = 0
		}
	}
	p.lastAlign, p.alignedAt = now, at
	if p.cond.buf != nil {
		p.sampleHeap(at)
	}
}

// EnableLifecycle allocates the per-cell staging buffers for node
// lifecycle events. Call once, before the run, when a fault plan is
// configured; without it (or without tracing) StageNode is a no-op.
func (p *Probe) EnableLifecycle() {
	if p == nil || p.cond.buf == nil || p.stages != nil {
		return
	}
	p.stages = make([]cellStage, p.bounds[len(p.bounds)-1])
}

// StageNode records a node lifecycle transition into the node's
// staging buffer. Called by whichever worker currently owns the cell —
// exclusive ownership is the advance contract — at the transition's
// sim-time instant. The event reaches the owning shard's track at the
// next drain (span end or Trace).
func (p *Probe) StageNode(cell int, kind EventKind, at int64) {
	if p == nil || p.stages == nil {
		return
	}
	st := &p.stages[cell]
	if int(st.n) >= stageCap {
		st.dropped++
		return
	}
	st.evs[st.n] = Event{Kind: kind, At: at, Node: cell, Wall: Now()}
	st.n++
}

// drain moves shard's cells' staged events into the shard's ring.
func (p *Probe) drain(shard int) {
	rg := &p.slots[shard].ring
	for c := p.bounds[shard]; c < p.bounds[shard+1]; c++ {
		st := &p.stages[c]
		for i := int32(0); i < st.n; i++ {
			ev := st.evs[i]
			ev.Track = shard
			rg.record(ev)
		}
		rg.dropped += int64(st.dropped)
		st.n, st.dropped = 0, 0
	}
}

// Decision records a campaign wave decision on the conductor track,
// with the fleet aligned: kind is one of the wave-decision kinds, arg
// the targeted cohort size.
func (p *Probe) Decision(kind EventKind, at int64, wave, epoch int, arg int64) {
	if p == nil {
		return
	}
	p.cond.record(Event{
		Kind: kind, Track: ConductorTrack, At: at, Node: -1,
		Wave: wave, Epoch: epoch, Arg: arg, Wall: Now(),
	})
}

// Deploy records a deploy-scheduling event (defer or landed retry) on
// the conductor track, with the fleet aligned.
func (p *Probe) Deploy(kind EventKind, at int64, epoch, node int, arg int64) {
	if p == nil {
		return
	}
	p.cond.record(Event{
		Kind: kind, Track: ConductorTrack, At: at, Node: node,
		Epoch: epoch, Arg: arg, Wall: Now(),
	})
}

// sampleHeap takes one heap sample stamped at sim-time at. Only called
// on the conductor goroutine with the fleet aligned: ReadMemStats
// stops the world, which inside a span would smear one shard's wait
// attribution across the fleet. Past memWatchCap samples the last slot
// is overwritten, keeping the first and latest watermarks.
func (p *Probe) sampleHeap(at int64) {
	runtime.ReadMemStats(&p.ms)
	hs := HeapSample{At: at, HeapAlloc: p.ms.HeapAlloc, HeapInuse: p.ms.HeapInuse, NumGC: p.ms.NumGC}
	if len(p.heap) == cap(p.heap) {
		p.heap[len(p.heap)-1] = hs
		return
	}
	p.heap = append(p.heap, hs)
}

// Profiling reports whether the probe attributes wall time.
func (p *Probe) Profiling() bool { return p != nil && p.profile }

// Profile copies the accumulated attribution into a Profile; nil
// unless profiling. Only call with the fleet quiescent (between spans)
// — the same contract as every other aligned-fleet read.
func (p *Probe) Profile() *Profile {
	if !p.Profiling() {
		return nil
	}
	out := &Profile{
		Shards:           make([]ShardProfile, len(p.slots)),
		ConductorAlignNS: p.alignNS,
	}
	for i := range p.slots {
		sl := &p.slots[i]
		out.Shards[i] = ShardProfile{
			Shard:     i,
			Counts:    sl.counts,
			StepNS:    sl.times[PhaseStep],
			FreeNS:    sl.times[PhaseFree],
			AlignNS:   sl.times[PhaseAlign],
			BarrierNS: sl.times[PhaseBarrier],
		}
	}
	return out
}

// Trace assembles the recorded events into a Trace; nil unless
// tracing. Staged lifecycle events no span has drained yet (t=0
// transitions, or a run with no spans) are drained, each track is
// stable-sorted by sim-time (staged events land at span end, possibly
// behind an epoch event with a later stamp; equal stamps keep their
// deterministic record order), and the tracks concatenate shard
// 0..S-1 then conductor. One final heap sample is
// taken at the aligned instant of the last Barrier. Only call with the
// fleet quiescent.
func (p *Probe) Trace() *Trace {
	if p == nil || p.cond.buf == nil {
		return nil
	}
	if p.stages != nil {
		for s := range p.slots {
			p.drain(s)
		}
	}
	p.sampleHeap(p.alignedAt)
	tr := &Trace{Schema: TraceSchema, Version: TraceVersion, Shards: len(p.slots)}
	collect := func(rg *ring) {
		start := len(tr.Events)
		tr.Events = rg.unroll(tr.Events)
		evs := tr.Events[start:]
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
		tr.Dropped += rg.dropped
	}
	for i := range p.slots {
		collect(&p.slots[i].ring)
	}
	collect(&p.cond)
	tr.Heap = append(tr.Heap, p.heap...)
	return tr
}
