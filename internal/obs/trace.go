package obs

// The trace view: bounded per-shard ring buffers of structured
// simulation events — shard span begin/end, epoch barriers, campaign
// wave decisions, node lifecycle transitions, deploy retries — stamped
// with sim-time. The profile answers "where did wall time go"; the
// trace answers "what happened, in what order", and exports it as a
// versioned wire form plus Chrome Trace Event JSON for Perfetto
// (chrometrace.go). The Probe (probe.go) records both.
//
// # Determinism split
//
// Every field of an Event except Wall — kind, track, sim-time, node,
// wave, epoch, arg — is derived purely from the simulation schedule
// and the fault plan, so the event stream is byte-identical across
// runs and worker widths for a fixed shard count (and the
// node-lifecycle projection is identical across shard counts too,
// since it derives from the fault plan alone). Wall is the diagnostic
// wall-clock reading of the transition, the same one the profile
// attributes from; it rides along for human correlation and MUST NEVER
// feed back into simulation. Trace.Deterministic strips it (and the
// heap telemetry's measured values) for byte-identity tests.
//
// # Concurrency
//
// Each track's ring is written only by the goroutine that owns that
// track during a span (the shard's worker for shard tracks, the
// conductor goroutine for the conductor track), and the conductor
// reads the rings only with the fleet aligned. The one wrinkle is node
// lifecycle events: a shard's cells can be advanced by several workers
// at once (worker allotment > 1), so those events stage into small
// fixed per-cell buffers — single writer per cell, since a cell is
// owned by exactly one worker during an advance — and the shard's
// goroutine drains its cells' stages into its ring at span end.

import (
	"encoding/json"
	"fmt"
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
// by the goroutine that owns the track (the shard slot's pad keeps
// neighbouring tracks apart). A nil buf means tracing is off.
type ring struct {
	buf     []Event
	n       int // total events ever recorded; n mod cap is the write slot
	dropped int64
}

// record appends ev, overwriting the oldest event once the ring is
// full; a no-op when tracing is off.
func (r *ring) record(ev Event) {
	if r.buf == nil {
		return
	}
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
// shard's goroutine at span end (or by Probe.Trace with the fleet
// aligned). No pad — stages are touched once per transition, not per
// event-loop iteration, and a fleet of cells could not afford one.
type cellStage struct {
	n       int32
	dropped int32
	evs     [stageCap]Event
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
	// Heap is the heap telemetry: one sample per conductor span
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

// maxTraceShards caps the shard count ParseTrace accepts. A probe
// holds a ringCap-event ring per shard, so no real run comes near it;
// the cap keeps a hostile document from sizing Chrome's buffers or a
// per-track scan.
const maxTraceShards = 1 << 16

// ParseTrace decodes a wire-form Trace, rejecting documents with the
// wrong schema, a missing version, or one newer than this binary
// understands — the same gate every versioned export in the repo
// applies — and documents no probe could have written: a shard count
// outside [1, maxTraceShards], or an event on a track outside
// [ConductorTrack, shards).
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
	case t.Shards < 1 || t.Shards > maxTraceShards:
		return nil, fmt.Errorf("obs: trace claims %d shards, want 1..%d", t.Shards, maxTraceShards)
	}
	for i, ev := range t.Events {
		if ev.Track < ConductorTrack || ev.Track >= t.Shards {
			return nil, fmt.Errorf("obs: trace event %d is on track %d, outside %d..%d", i, ev.Track, ConductorTrack, t.Shards-1)
		}
	}
	return &t, nil
}
