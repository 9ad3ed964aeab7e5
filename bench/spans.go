package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// spanID names a recorded span; 0 is "no span" (the root's parent, and
// everything on a nil tracer).
type spanID int

// span is one timed call from bench/ into a layer's public function.
// Start and End are nanoseconds since the tracer was made.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	// Iter is the workload iteration the span belongs to — the
	// identifier every span of one unit of work shares.
	Iter  int    `json:"iter"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass runs the same workload code. Spans go
// around the calls an iteration makes from its own goroutine, a handful
// per iteration; parents are passed explicitly.
//
// The 2000 HealthDetailInto polls canary_2k makes from inside
// Coordinator.Span get no spans of their own. Their 2 MB of records
// were enough live heap to move where the collector's cycles fall
// while the 126 MB fleet is built, which cost the traced pass 8% — an
// artifact of tracing, not a price of polling. The polls are priced by
// fleet.health_poll_ns and shard.align_frac in the ladder.
type tracer struct {
	t0    time.Time
	iter  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setIter tags the spans begun from now on with iteration i.
func (t *tracer) setIter(i int) {
	if t != nil {
		t.iter = i
	}
}

func (t *tracer) begin(parent spanID, name string) spanID {
	if t == nil {
		return 0
	}
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Iter: t.iter, Name: name,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return id
}

func (t *tracer) end(id spanID) {
	if t != nil && id != 0 {
		t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	}
}

// selfRow is one line of the self-time table: every span of one name.
type selfRow struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus its children's; children never overlap, since every
// span is recorded from the iteration's own goroutine.
func selfTimes(spans []span) []selfRow {
	inChildren := make(map[spanID]int64)
	for _, s := range spans {
		inChildren[s.Parent] += s.End - s.Start
	}
	byName := make(map[string]*selfRow)
	var rows []*selfRow
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			byName[s.Name] = row
			rows = append(rows, row)
		}
		row.Count++
		row.TotalNS += s.End - s.Start
		row.SelfNS += s.End - s.Start - inChildren[s.ID]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SelfNS > rows[j].SelfNS })
	out := make([]selfRow, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out
}

func renderSelfTimes(rows []selfRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %8d %12.3f %12.3f\n", r.Name, r.Count,
			float64(r.TotalNS)/1e6, float64(r.SelfNS)/1e6)
	}
	return b.String()
}

// chromeTrace renders spans as Chrome Trace Event JSON (complete "X"
// events, microsecond stamps), loadable in Perfetto or chrome://tracing.
// One process per workload; id, parent and iteration ride in args.
func chromeTrace(byWorkload map[string][]span) ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	names := make([]string, 0, len(byWorkload))
	for n := range byWorkload {
		names = append(names, n)
	}
	sort.Strings(names)
	events := []event{}
	for i, n := range names {
		pid := i + 1
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": n}})
		for _, s := range byWorkload[n] {
			events = append(events, event{
				Name: s.Name, Ph: "X", Pid: pid, Tid: 1,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "iter": s.Iter},
			})
		}
	}
	return json.MarshalIndent(map[string]any{"displayTimeUnit": "ms", "traceEvents": events}, "", " ")
}
