package obs

// The flight recorder: bounded per-shard ring buffers of structured
// simulation events — shard span begin/end, epoch barriers, campaign
// wave decisions, node lifecycle transitions, deploy retries — stamped
// with sim-time. The profiler above answers "where did wall time go";
// the recorder answers "what happened, in what order", and exports it
// as a versioned wire form plus Chrome Trace Event JSON for Perfetto
// (chrometrace.go).
//
// # Determinism split
//
// The recorder inherits the profiler's split. Every field of an Event
// except Wall — kind, track, sim-time, node, wave, epoch, arg — is
// derived purely from the simulation schedule and the fault plan, so
// the event stream is byte-identical across runs and worker widths for
// a fixed shard count (and the node-lifecycle projection is identical
// across shard counts too, since it derives from the fault plan
// alone). Wall is a diagnostic wall-clock stamp that rides along for
// human correlation and MUST NEVER feed back into simulation;
// Trace.Deterministic strips it (and the heap telemetry's measured
// values) for byte-identity tests.
//
// # Concurrency
//
// Same single-writer discipline as the profiler: each track's ring is
// appended to only by the goroutine that owns that track during a span
// (the shard's worker for shard tracks, the conductor goroutine for
// the conductor track), the slots are cache-line padded, and the
// conductor reads the rings only with the fleet aligned, after the
// span barrier's WaitGroup edge. The one wrinkle is node lifecycle
// events: a shard's cells can be advanced by several workers at once
// (worker allotment > 1), so those events stage into small fixed
// per-cell buffers — single writer per cell, since a cell is owned by
// exactly one worker during an advance — and the shard's goroutine
// drains its cells' stages into its ring at span end. A nil *Recorder
// is the disabled recorder: every method is nil-safe, costs one
// branch, and allocates nothing.

import (
	"encoding/json"
	"fmt"
	"sort"
)

// TraceVersion guards the JSON shape of Trace, Event, and HeapSample —
// the flight-recorder wire form inside -trace exports. Bump it and the
// wirelock together on any field change.
const TraceVersion = 1

// TraceSchema names the -trace export envelope.
const TraceSchema = "sol-trace"

// EventKind classifies a flight-recorder event.
type EventKind int

const (
	// EvSpanBegin/EvSpanEnd bracket one shard's stretch of a conductor
	// span; EvEpoch marks a stepped-epoch barrier within it.
	EvSpanBegin EventKind = iota
	EvSpanEnd
	EvEpoch
	// Campaign wave decisions, mirroring the controlplane trace
	// actions: recorded on the conductor track with the fleet aligned.
	EvConvert
	EvPass
	EvFail
	EvRollback
	EvComplete
	EvAbstain
	EvHalt
	// Node lifecycle transitions, from the fault plan's instants:
	// down (crash), up (successful restart), dark (drops off the
	// monitoring plane), lit (reports again).
	EvNodeDown
	EvNodeUp
	EvNodeDark
	EvNodeLit
	// Deploy scheduling under faults: a conversion/revert deferred
	// because its node was down, and a deferred deploy landing on a
	// later retry.
	EvDeployDefer
	EvDeployRetry
	numEventKinds
)

// String names the kind as rendered in exports and reports.
func (k EventKind) String() string {
	switch k {
	case EvSpanBegin:
		return "span-begin"
	case EvSpanEnd:
		return "span-end"
	case EvEpoch:
		return "epoch"
	case EvConvert:
		return "convert"
	case EvPass:
		return "pass"
	case EvFail:
		return "fail"
	case EvRollback:
		return "rollback"
	case EvComplete:
		return "complete"
	case EvAbstain:
		return "abstain"
	case EvHalt:
		return "halt"
	case EvNodeDown:
		return "node-down"
	case EvNodeUp:
		return "node-up"
	case EvNodeDark:
		return "node-dark"
	case EvNodeLit:
		return "node-lit"
	case EvDeployDefer:
		return "deploy-defer"
	case EvDeployRetry:
		return "deploy-retry"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ConductorTrack is the Track value of events recorded on the
// conductor's own goroutine (campaign decisions, deploy scheduling)
// rather than on a shard.
const ConductorTrack = -1

// Event is one flight-recorder entry. It is plain comparable data and
// fixed-size: the record path stores one into a preallocated ring slot
// with no allocation. Every field except Wall is deterministic (see
// the package's determinism split).
//
//sollint:wire TraceVersion
type Event struct {
	// Kind classifies the event; Track is the shard it happened on, or
	// ConductorTrack (-1) for conductor-goroutine events.
	Kind  EventKind `json:"kind"`
	Track int       `json:"track"`
	// At is the event's sim-time: elapsed virtual nanoseconds since the
	// fleet's start instant. Deterministic.
	At int64 `json:"at_ns"`
	// Node is the node index for lifecycle and deploy events, -1
	// otherwise. No omitempty: node 0 is a valid subject.
	Node int `json:"node"`
	// Wave and Epoch locate campaign decisions on the wave/epoch grid;
	// Epoch also numbers EvEpoch barriers within a span.
	Wave  int `json:"wave,omitempty"`
	Epoch int `json:"epoch,omitempty"`
	// Arg is a kind-specific deterministic payload: the targeted cohort
	// size for wave decisions, 1 for a deferred revert (0 for a
	// conversion), the attempt count for a landed retry.
	Arg int64 `json:"arg,omitempty"`
	// Wall is a diagnostic wall-clock stamp (monotonic ns since process
	// start, see Now) — never deterministic, stripped by
	// Trace.Deterministic.
	Wall int64 `json:"wall_ns,omitempty"`
}

// ringCap bounds each track's ring: the most recent ringCap events are
// kept and older ones are counted in Trace.Dropped. Sized so every
// realistic span schedule fits whole — a 500 ms span stepped at a 2 ms
// canary cadence is 250 epoch events.
const ringCap = 2048

// stageCap bounds one cell's lifecycle staging between drains (one
// span — a traced fleet.Run is a single one). A cell rarely transitions
// more than twice per span; overflow is counted, not fatal.
const stageCap = 8

// ring is one track's event buffer. During a span it is written only
// by the goroutine that owns the track; the pad keeps neighbouring
// tracks' write cursors off each other's cache lines.
type ring struct {
	buf     []Event
	n       int // total events ever appended; n mod cap is the write slot
	dropped int64
	_       [40]byte
}

func (r *ring) append(ev Event) {
	if r.n >= len(r.buf) {
		r.dropped++
	}
	r.buf[r.n%len(r.buf)] = ev
	r.n++
}

// unroll copies the ring's surviving events, oldest first, onto dst.
func (r *ring) unroll(dst []Event) []Event {
	if r.n <= len(r.buf) {
		return append(dst, r.buf[:r.n]...)
	}
	head := r.n % len(r.buf)
	dst = append(dst, r.buf[head:]...)
	return append(dst, r.buf[:head]...)
}

// cellStage is one cell's lifecycle staging buffer: written only by
// the worker currently advancing that cell, drained by the owning
// shard's goroutine at span end (or by Snapshot with the fleet
// aligned). No pad — stages are touched once per transition, not per
// event-loop iteration, and a fleet of cells could not afford one.
type cellStage struct {
	n       int32
	dropped int32
	evs     [stageCap]Event
}

// Recorder accumulates flight-recorder events for one conductor. A nil
// *Recorder is the disabled recorder: every method is nil-safe and
// returns immediately, so callers thread one pointer and pay one
// branch when tracing is off.
type Recorder struct {
	// rings[s] is shard s's track; rings[shards] is the conductor
	// track.
	rings  []ring
	bounds []int // shard s owns cells [bounds[s], bounds[s+1])
	// stages is the per-cell lifecycle staging, allocated by
	// EnableLifecycle only when a fault plan exists.
	stages []cellStage
	mem    *MemWatch
}

// NewRecorder returns an enabled recorder for a conductor whose shard
// s owns cells [bounds[s], bounds[s+1]) — the same bounds slice the
// conductor partitions with. len(bounds)-1 is the shard count.
func NewRecorder(bounds []int) *Recorder {
	shards := len(bounds) - 1
	if shards < 1 {
		shards = 1
		bounds = []int{0, 0}
	}
	r := &Recorder{
		rings:  make([]ring, shards+1),
		bounds: append([]int(nil), bounds...),
		mem:    NewMemWatch(memWatchCap),
	}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, ringCap)
	}
	return r
}

// Enabled reports whether the recorder is collecting.
func (r *Recorder) Enabled() bool { return r != nil }

// Shards returns the recorder's shard-track count (0 when disabled).
func (r *Recorder) Shards() int {
	if r == nil {
		return 0
	}
	return len(r.rings) - 1
}

// EnableLifecycle allocates the per-cell staging buffers for node
// lifecycle events. Call once, before the run, when a fault plan is
// configured; without it StageNode is a no-op (and costs one branch).
func (r *Recorder) EnableLifecycle() {
	if r == nil || r.stages != nil {
		return
	}
	r.stages = make([]cellStage, r.bounds[len(r.bounds)-1])
}

// SpanBegin records the start of shard's stretch of a conductor span,
// on the shard's goroutine. at is the span's aligned start instant in
// elapsed sim nanoseconds.
func (r *Recorder) SpanBegin(shard int, at int64) {
	if r == nil {
		return
	}
	r.rings[shard].append(Event{Kind: EvSpanBegin, Track: shard, At: at, Node: -1, Wall: Now()})
}

// Epoch records one stepped-epoch barrier of shard, on the shard's
// goroutine. epoch is 1-based within the span.
func (r *Recorder) Epoch(shard int, at int64, epoch int) {
	if r == nil {
		return
	}
	r.rings[shard].append(Event{Kind: EvEpoch, Track: shard, At: at, Node: -1, Epoch: epoch, Wall: Now()})
}

// SpanEnd records the end of shard's stretch of a span and drains the
// shard's cells' staged lifecycle events into its ring — the shard's
// goroutine owns both sides, and the ring receives the cells in index
// order, each cell's events in time order, so the drained sequence is
// deterministic.
func (r *Recorder) SpanEnd(shard int, at int64) {
	if r == nil {
		return
	}
	if r.stages != nil {
		r.drain(shard, r.bounds[shard], r.bounds[shard+1])
	}
	r.rings[shard].append(Event{Kind: EvSpanEnd, Track: shard, At: at, Node: -1, Wall: Now()})
}

// drain moves cells [lo, hi)'s staged events into track's ring.
func (r *Recorder) drain(track, lo, hi int) {
	rg := &r.rings[track]
	for c := lo; c < hi; c++ {
		st := &r.stages[c]
		for i := int32(0); i < st.n; i++ {
			ev := st.evs[i]
			ev.Track = track
			rg.append(ev)
		}
		rg.dropped += int64(st.dropped)
		st.n, st.dropped = 0, 0
	}
}

// StageNode records a node lifecycle transition into the node's
// staging buffer. Called by whichever worker currently owns the cell —
// exclusive ownership is the advance contract — at the transition's
// sim-time instant. The event reaches the owning shard's track at the
// next drain (span end or snapshot).
func (r *Recorder) StageNode(cell int, kind EventKind, at int64) {
	if r == nil || r.stages == nil {
		return
	}
	st := &r.stages[cell]
	if int(st.n) >= stageCap {
		st.dropped++
		return
	}
	st.evs[st.n] = Event{Kind: kind, At: at, Node: cell, Wall: Now()}
	st.n++
}

// Decision records a campaign wave decision on the conductor track,
// with the fleet aligned: kind is one of the wave-decision kinds, arg
// the targeted cohort size.
func (r *Recorder) Decision(kind EventKind, at int64, wave, epoch int, arg int64) {
	if r == nil {
		return
	}
	ct := len(r.rings) - 1
	r.rings[ct].append(Event{
		Kind: kind, Track: ConductorTrack, At: at, Node: -1,
		Wave: wave, Epoch: epoch, Arg: arg, Wall: Now(),
	})
}

// Deploy records a deploy-scheduling event (defer or landed retry) on
// the conductor track, with the fleet aligned.
func (r *Recorder) Deploy(kind EventKind, at int64, epoch, node int, arg int64) {
	if r == nil {
		return
	}
	ct := len(r.rings) - 1
	r.rings[ct].append(Event{
		Kind: kind, Track: ConductorTrack, At: at, Node: node,
		Epoch: epoch, Arg: arg, Wall: Now(),
	})
}

// SampleHeap takes one heap telemetry sample stamped at sim-time at,
// on the conductor goroutine (see MemWatch). The sampling schedule —
// one sample per conductor span, plus one at snapshot — is
// deterministic; the measured values are diagnostic only.
func (r *Recorder) SampleHeap(at int64) {
	if r == nil {
		return
	}
	r.mem.Sample(at)
}

// Snapshot assembles the accumulated events into a Trace: staged
// lifecycle events are drained, each track is stable-sorted by
// sim-time (staged events land at span end, possibly behind an epoch
// event with a later stamp), and the tracks concatenate shard 0..S-1
// then conductor. One final heap sample is taken at the aligned
// instant. Nil when disabled. Only call with the fleet quiescent —
// the same contract as the profiler's Snapshot.
func (r *Recorder) Snapshot(at int64) *Trace {
	if r == nil {
		return nil
	}
	if r.stages != nil {
		// Catch staged events no span has drained yet (transitions
		// applied at t=0 before the first span, or a run with no spans).
		for s := 0; s < len(r.rings)-1; s++ {
			r.drain(s, r.bounds[s], r.bounds[s+1])
		}
	}
	r.mem.Sample(at)
	tr := &Trace{
		Schema:  TraceSchema,
		Version: TraceVersion,
		Shards:  len(r.rings) - 1,
	}
	var scratch []Event
	for i := range r.rings {
		rg := &r.rings[i]
		scratch = rg.unroll(scratch[:0])
		sortEvents(scratch)
		tr.Events = append(tr.Events, scratch...)
		tr.Dropped += rg.dropped
	}
	tr.Heap = append(tr.Heap, r.mem.Samples()...)
	return tr
}

// sortEvents stable-sorts one track's events by sim-time, preserving
// append order among equal stamps — deterministic given the
// deterministic append order.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
}

// Trace is a finished run's flight-recorder export: the wire form
// embedded in -trace files (and wrapped in Chrome Trace Event JSON by
// Chrome). Events hold the tracks concatenated — shard 0..Shards-1,
// then the conductor track — each sorted by sim-time.
//
//sollint:wire TraceVersion
type Trace struct {
	Schema  string  `json:"schema"`
	Version int     `json:"version"`
	Shards  int     `json:"shards"`
	Events  []Event `json:"events"`
	// Dropped counts events lost to ring or staging overflow,
	// fleet-wide. Deterministic: drops depend only on event counts.
	Dropped int64 `json:"dropped,omitempty"`
	// Heap is the MemWatch telemetry: one sample per conductor span
	// plus one at snapshot. Sample instants are deterministic, measured
	// values are diagnostic only.
	Heap []HeapSample `json:"heap,omitempty"`
}

// Deterministic returns a copy with every diagnostic field zeroed —
// the events' wall stamps and the heap samples' measured values —
// leaving exactly the byte-identity surface: kinds, tracks, sim-times,
// nodes, waves, epochs, args, drop counts, and heap sample instants.
func (t *Trace) Deterministic() *Trace {
	if t == nil {
		return nil
	}
	out := &Trace{
		Schema:  t.Schema,
		Version: t.Version,
		Shards:  t.Shards,
		Dropped: t.Dropped,
		Events:  make([]Event, len(t.Events)),
		Heap:    make([]HeapSample, len(t.Heap)),
	}
	for i, ev := range t.Events {
		ev.Wall = 0
		out.Events[i] = ev
	}
	for i, hs := range t.Heap {
		out.Heap[i] = HeapSample{At: hs.At}
	}
	return out
}

// Track returns the events of one track (a shard index, or
// ConductorTrack), in sim-time order — a convenience view over the
// concatenated Events.
func (t *Trace) Track(track int) []Event {
	var out []Event
	for _, ev := range t.Events {
		if ev.Track == track {
			out = append(out, ev)
		}
	}
	return out
}

// Kind returns every event of one kind across all tracks, in the
// trace's global order.
func (t *Trace) Kind(kind EventKind) []Event {
	var out []Event
	for _, ev := range t.Events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// ParseTrace decodes a wire-form Trace, rejecting documents with the
// wrong schema, a missing version, or one newer than this binary
// understands — the same gate every versioned export in the repo
// applies.
func ParseTrace(b []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("obs: trace does not parse: %w", err)
	}
	switch {
	case t.Schema != TraceSchema:
		return nil, fmt.Errorf("obs: trace schema %q, want %q", t.Schema, TraceSchema)
	case t.Version < 1:
		return nil, fmt.Errorf("obs: trace has no version (or version %d); want 1..%d", t.Version, TraceVersion)
	case t.Version > TraceVersion:
		return nil, fmt.Errorf("obs: trace is version %d, but this binary understands up to %d — upgrade the binary, not the trace", t.Version, TraceVersion)
	}
	return &t, nil
}
