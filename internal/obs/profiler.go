package obs

// shardAcc is one shard's live accumulator. During a span it is
// written only by the goroutine advancing that shard; the conductor
// reads it only after the span barrier. The pad keeps adjacent shards'
// slots off each other's cache lines so the single-writer discipline
// also means no false sharing.
type shardAcc struct {
	counts ShardCounts
	times  [NumPhases]int64
	finish int64 // Now() when the shard finished the current span; consumed by EndSpan
	_      [56]byte
}

// Profiler accumulates per-shard attribution for one conductor. A nil
// *Profiler is the disabled profiler: every method is nil-safe and
// returns immediately, so callers thread one pointer and pay one
// branch when profiling is off.
type Profiler struct {
	accs []shardAcc

	// Conductor-goroutine state: the instant the last span's barrier
	// completed, and the accumulated between-spans (fleet alignment)
	// time. Only touched by BeginSpan/EndSpan, which run with no span
	// in flight.
	lastAlign int64
	alignNS   int64
}

// NewProfiler returns an enabled profiler for a conductor of the given
// shard count.
func NewProfiler(shards int) *Profiler {
	if shards < 1 {
		shards = 1
	}
	return &Profiler{accs: make([]shardAcc, shards)}
}

// Enabled reports whether the profiler is collecting.
func (p *Profiler) Enabled() bool { return p != nil }

// Start returns a phase-start token (0 when disabled) to pass to the
// next Record call.
func (p *Profiler) Start() int64 {
	if p == nil {
		return 0
	}
	return Now()
}

// RecordFree charges the time since the token to the shard's free-run
// phase and counts cells single-call advances. It returns a fresh
// token so consecutive phases chain without re-reading the clock.
func (p *Profiler) RecordFree(shard, cells int, since int64) int64 {
	if p == nil {
		return 0
	}
	now := Now()
	a := &p.accs[shard]
	a.counts.FreeAdvances += cells
	a.times[PhaseFree] += now - since
	return now
}

// RecordStep charges the time since the token to the shard's stepping
// phase, counting one epoch of cells stepped advances.
func (p *Profiler) RecordStep(shard, cells int, since int64) int64 {
	if p == nil {
		return 0
	}
	now := Now()
	a := &p.accs[shard]
	a.counts.Epochs++
	a.counts.SteppedAdvances += cells
	a.times[PhaseStep] += now - since
	return now
}

// RecordAlign charges the time since the token to the shard's align
// phase — the caller's OnEpoch observer.
func (p *Profiler) RecordAlign(shard int, since int64) {
	if p == nil {
		return
	}
	a := &p.accs[shard]
	a.times[PhaseAlign] += Now() - since
}

// SpanEnd marks the shard finished with the current span: it counts
// the span and stamps the finish instant EndSpan turns into barrier
// wait. Called on the shard's goroutine as its last act of the span.
func (p *Profiler) SpanEnd(shard int) {
	if p == nil {
		return
	}
	a := &p.accs[shard]
	a.counts.Spans++
	a.finish = Now()
}

// BeginSpan runs on the conductor goroutine as a span launches: the
// gap since the previous span's barrier is fleet-alignment work
// (deploys, gate judgements) and accrues to ConductorAlignNS.
func (p *Profiler) BeginSpan() {
	if p == nil {
		return
	}
	if p.lastAlign != 0 {
		p.alignNS += Now() - p.lastAlign
	}
}

// EndSpan runs on the conductor goroutine after the span barrier: each
// shard's finished-to-barrier gap is its wait for the rest of the
// fleet. The WaitGroup edge of the barrier orders the shards' writes
// before these reads.
func (p *Profiler) EndSpan() {
	if p == nil {
		return
	}
	now := Now()
	for i := range p.accs {
		a := &p.accs[i]
		if a.finish != 0 {
			a.times[PhaseBarrier] += now - a.finish
			a.finish = 0
		}
	}
	p.lastAlign = now
}

// Snapshot copies the accumulated attribution into a Profile. Nil when
// disabled. Only call with the fleet quiescent (between spans) — the
// same contract as every other aligned-fleet read.
func (p *Profiler) Snapshot() *Profile {
	if p == nil {
		return nil
	}
	out := &Profile{
		Shards:           make([]ShardProfile, len(p.accs)),
		ConductorAlignNS: p.alignNS,
	}
	for i := range p.accs {
		a := &p.accs[i]
		out.Shards[i] = ShardProfile{
			Shard:     i,
			Counts:    a.counts,
			StepNS:    a.times[PhaseStep],
			FreeNS:    a.times[PhaseFree],
			AlignNS:   a.times[PhaseAlign],
			BarrierNS: a.times[PhaseBarrier],
		}
	}
	return out
}
