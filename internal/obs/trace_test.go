package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fixtureTrace builds a small traced probe run deterministically: two
// shards, one span each with an epoch barrier, one node crash/restart
// cycle, and one campaign decision — every event category the trace
// knows.
func fixtureTrace(t *testing.T) *Trace {
	t.Helper()
	p := NewProbe([]int{0, 2, 4}, false, true)
	p.EnableLifecycle()
	p.StageNode(1, EvNodeDown, 0) // t=0 crash, staged before the first span
	t0, t1 := p.Begin(0, 0), p.Begin(1, 0)
	t0, t1 = p.Step(0, 1, 500, 1, t0), p.Step(1, 1, 500, 1, t1)
	p.StageNode(3, EvNodeDark, 700)
	p.StageNode(1, EvNodeUp, 800)
	p.End(0, 1000, t0)
	p.End(1, 1000, t1)
	p.Decision(EvConvert, 1000, 1, 1, 2)
	p.Deploy(EvDeployDefer, 1000, 1, 3, 0)
	p.Barrier(1000)
	return p.Trace()
}

func TestRecorderSnapshot(t *testing.T) {
	t.Parallel()
	tr := fixtureTrace(t)
	if tr.Schema != TraceSchema || tr.Version != TraceVersion {
		t.Fatalf("envelope = %q v%d", tr.Schema, tr.Version)
	}
	if tr.Shards != 2 {
		t.Fatalf("Shards = %d, want 2", tr.Shards)
	}
	if tr.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped)
	}
	// Shard 0's track: begin, epoch, node-down (staged at 0 but drained
	// at span end, stable-sorted back to its stamp), node-up, end.
	kinds := func(track int) []EventKind {
		var out []EventKind
		for _, ev := range tr.Track(track) {
			out = append(out, ev.Kind)
		}
		return out
	}
	want0 := []EventKind{EvSpanBegin, EvNodeDown, EvEpoch, EvNodeUp, EvSpanEnd}
	if got := kinds(0); !reflect.DeepEqual(got, want0) {
		t.Fatalf("track 0 kinds = %v, want %v", got, want0)
	}
	want1 := []EventKind{EvSpanBegin, EvEpoch, EvNodeDark, EvSpanEnd}
	if got := kinds(1); !reflect.DeepEqual(got, want1) {
		t.Fatalf("track 1 kinds = %v, want %v", got, want1)
	}
	wantC := []EventKind{EvConvert, EvDeployDefer}
	if got := kinds(ConductorTrack); !reflect.DeepEqual(got, wantC) {
		t.Fatalf("conductor kinds = %v, want %v", got, wantC)
	}
	// Sim-time is monotone within every track.
	for _, track := range []int{0, 1, ConductorTrack} {
		last := int64(-1)
		for _, ev := range tr.Track(track) {
			if ev.At < last {
				t.Fatalf("track %d: %s at %d after %d", track, ev.Kind, ev.At, last)
			}
			last = ev.At
		}
	}
	// Barrier and Trace each sample the heap at the aligned instant.
	if len(tr.Heap) != 2 || tr.Heap[0].At != 1000 || tr.Heap[1].At != 1000 {
		t.Fatalf("heap samples = %+v, want two at 1000", tr.Heap)
	}
}

// TestRecorderNilSafe: the nil probe and a profile-only probe record
// nothing and serve no trace, and a nil Trace refuses to export.
func TestRecorderNilSafe(t *testing.T) {
	t.Parallel()
	for _, p := range []*Probe{nil, NewProbe([]int{0, 2}, true, false)} {
		p.EnableLifecycle()
		p.End(0, 2, p.Step(0, 1, 1, 1, p.Begin(0, 0)))
		p.StageNode(0, EvNodeDown, 1)
		p.Barrier(2)
		p.Decision(EvConvert, 2, 1, 1, 1)
		p.Deploy(EvDeployRetry, 2, 1, 0, 1)
		if got := p.Trace(); got != nil {
			t.Fatalf("untraced probe trace = %+v, want nil", got)
		}
		if p != nil && (p.stages != nil || len(p.heap) != 0) {
			t.Fatal("profile-only probe staged events or sampled the heap")
		}
	}
	var tr *Trace
	if tr.Deterministic() != nil {
		t.Fatal("nil trace Deterministic != nil")
	}
	if _, err := tr.Chrome(); err == nil {
		t.Fatal("nil trace Chrome() succeeded")
	}
}

// TestRecorderRingDrop: past ringCap events on one track, the oldest
// drop and are counted — keep-most-recent, never an allocation or a
// reorder.
func TestRecorderRingDrop(t *testing.T) {
	t.Parallel()
	p := NewProbe([]int{0, 1}, false, true)
	tok := p.Begin(0, 0)
	for i := 0; i < ringCap+10; i++ {
		tok = p.Step(0, 1, int64(i+1), i+1, tok)
	}
	p.End(0, int64(ringCap+11), tok)
	tr := p.Trace()
	if tr.Dropped != 12 { // begin + 11 oldest epochs pushed out
		t.Fatalf("Dropped = %d, want 12", tr.Dropped)
	}
	evs := tr.Track(0)
	if len(evs) != ringCap {
		t.Fatalf("track kept %d events, want %d", len(evs), ringCap)
	}
	if evs[len(evs)-1].Kind != EvSpanEnd {
		t.Fatal("most recent event (span end) was dropped")
	}
	if evs[0].At >= evs[len(evs)-1].At {
		t.Fatal("surviving events out of order")
	}
}

// TestRecorderStageOverflow: a cell transitioning more than stageCap
// times between drains counts the overflow instead of corrupting the
// buffer.
func TestRecorderStageOverflow(t *testing.T) {
	t.Parallel()
	p := NewProbe([]int{0, 1}, false, true)
	p.EnableLifecycle()
	for i := 0; i < stageCap+3; i++ {
		p.StageNode(0, EvNodeDown, int64(i))
	}
	tr := p.Trace()
	if tr.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped)
	}
	if got := len(tr.Track(0)); got != stageCap {
		t.Fatalf("track 0 kept %d staged events, want %d", got, stageCap)
	}
}

func TestTraceDeterministic(t *testing.T) {
	t.Parallel()
	tr := fixtureTrace(t)
	det := tr.Deterministic()
	for i, ev := range det.Events {
		if ev.Wall != 0 {
			t.Fatalf("event %d keeps wall stamp %d", i, ev.Wall)
		}
		// Everything else survives.
		orig := tr.Events[i]
		orig.Wall = 0
		if ev != orig {
			t.Fatalf("Deterministic changed a sim field: %+v vs %+v", ev, orig)
		}
	}
	for i, hs := range det.Heap {
		if hs.HeapAlloc != 0 || hs.HeapInuse != 0 || hs.NumGC != 0 {
			t.Fatalf("heap sample %d keeps measured values: %+v", i, hs)
		}
		if hs.At != tr.Heap[i].At {
			t.Fatalf("heap sample %d lost its instant", i)
		}
	}
	// The original is untouched (Deterministic copies).
	if tr.Events[0].Wall == 0 && tr.Events[len(tr.Events)-1].Wall == 0 {
		t.Fatal("fixture recorded no wall stamps — the strip test is vacuous")
	}
}

func TestParseTraceGates(t *testing.T) {
	t.Parallel()
	tr := fixtureTrace(t)
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Shards != tr.Shards || len(back.Events) != len(tr.Events) {
		t.Fatal("round trip lost events")
	}
	for _, tc := range []struct {
		name, doc, want string
	}{
		{"bad json", "{", "does not parse"},
		{"wrong schema", `{"schema":"sol-metrics","version":1}`, "schema"},
		{"no version", `{"schema":"sol-trace","shards":1}`, "no version"},
		{"future version", `{"schema":"sol-trace","version":99}`, "upgrade the binary"},
		{"no shards", `{"schema":"sol-trace","version":1,"events":[]}`, "claims 0 shards"},
		{"negative shards", `{"schema":"sol-trace","version":1,"shards":-5,"events":[]}`, "claims -5 shards"},
		{"huge shards", `{"schema":"sol-trace","version":1,"shards":1099511627776,"events":[]}`, "claims 1099511627776 shards"},
		{"track past shards", `{"schema":"sol-trace","version":1,"shards":1,"events":[{"kind":0,"track":1,"at_ns":0,"node":-1}]}`, "on track 1"},
		{"track below conductor", `{"schema":"sol-trace","version":1,"shards":1,"events":[{"kind":0,"track":-2,"at_ns":0,"node":-1}]}`, "on track -2"},
	} {
		if _, err := ParseTrace([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestTraceWireFixpoint: marshal∘unmarshal∘marshal is the identity on
// the wire bytes — the same fixpoint contract every versioned export
// in the repo carries.
func TestTraceWireFixpoint(t *testing.T) {
	t.Parallel()
	tr := fixtureTrace(t)
	b1, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("marshal∘unmarshal∘marshal is not a fixpoint:\n%s\nvs\n%s", b1, b2)
	}
}

// TestChromeGolden pins the exact Chrome Trace Event JSON for a tiny
// deterministic fixture — the Perfetto-facing format is a wire format
// too, just one whose version lives in this golden.
func TestChromeGolden(t *testing.T) {
	t.Parallel()
	tr := &Trace{
		Schema:  TraceSchema,
		Version: TraceVersion,
		Shards:  1,
		Events: []Event{
			{Kind: EvSpanBegin, Track: 0, At: 0, Node: -1},
			{Kind: EvNodeDown, Track: 0, At: 500, Node: 1},
			{Kind: EvEpoch, Track: 0, At: 1000, Node: -1, Epoch: 1},
			{Kind: EvNodeUp, Track: 0, At: 1500, Node: 1},
			{Kind: EvSpanEnd, Track: 0, At: 2000, Node: -1},
			{Kind: EvConvert, Track: ConductorTrack, At: 2000, Node: -1, Wave: 1, Epoch: 1, Arg: 2},
		},
		Heap: []HeapSample{{At: 2000, HeapAlloc: 1024, HeapInuse: 2048, NumGC: 3}},
	}
	got, err := tr.Chrome()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"sol-trace","version":1,"displayTimeUnit":"ms","traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"sol fleet"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"conductor"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"shard 0"}},` +
		`{"name":"span","ph":"B","ts":0,"pid":0,"tid":1,"cat":"span"},` +
		`{"name":"node-down","ph":"i","ts":0.5,"pid":0,"tid":1,"cat":"lifecycle","s":"t","args":{"node":1}},` +
		`{"name":"node 1 outage","ph":"s","ts":0.5,"pid":0,"tid":1,"cat":"lifecycle","id":2},` +
		`{"name":"epoch","ph":"i","ts":1,"pid":0,"tid":1,"cat":"epoch","s":"t","args":{"epoch":1}},` +
		`{"name":"node-up","ph":"i","ts":1.5,"pid":0,"tid":1,"cat":"lifecycle","s":"t","args":{"node":1}},` +
		`{"name":"node 1 outage","ph":"f","ts":1.5,"pid":0,"tid":1,"cat":"lifecycle","id":2,"bp":"e"},` +
		`{"name":"span","ph":"E","ts":2,"pid":0,"tid":1,"cat":"span"},` +
		`{"name":"convert","ph":"i","ts":2,"pid":0,"tid":0,"cat":"campaign","s":"g","args":{"wave":1,"epoch":1,"arg":2}},` +
		`{"name":"heap bytes","ph":"C","ts":2,"pid":0,"tid":0,"args":{"heap_alloc":1024,"heap_inuse":2048}},` +
		`{"name":"gc cycles","ph":"C","ts":2,"pid":0,"tid":0,"args":{"num_gc":3}}` +
		`],"sol":` + mustJSON(t, tr) + `}`
	if string(got) != want {
		t.Fatalf("chrome export drifted:\n got %s\nwant %s", got, want)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHeapLineGolden(t *testing.T) {
	t.Parallel()
	samples := []HeapSample{
		{At: 0, HeapAlloc: 10 << 20, HeapInuse: 12 << 20, NumGC: 5},
		{At: 1000, HeapAlloc: 512 << 20, HeapInuse: 600 << 20, NumGC: 9},
		{At: 2000, HeapAlloc: 64 << 20, HeapInuse: 80 << 20, NumGC: 12},
	}
	want := "heap: peak alloc 512.0MiB, peak inuse 600.0MiB, 7 gc cycles over 3 samples"
	if got := HeapLine(samples); got != want {
		t.Fatalf("HeapLine = %q, want %q", got, want)
	}
	if got := HeapLine(nil); got != "" {
		t.Fatalf("HeapLine(nil) = %q, want empty", got)
	}
	// Byte scales.
	for b, want := range map[uint64]string{
		512:     "512B",
		2 << 10: "2.0KiB",
		3 << 30: "3.0GiB",
	} {
		if got := fmtBytes(b); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", b, got, want)
		}
	}
}

// TestMemWatchClip: past memWatchCap heap samples, the last slot is
// overwritten, so the first and latest watermarks both survive.
func TestMemWatchClip(t *testing.T) {
	t.Parallel()
	p := NewProbe([]int{0, 1}, false, true)
	for i := 0; i <= memWatchCap+10; i++ {
		p.Barrier(int64(i))
	}
	got := p.Trace().Heap
	if len(got) != memWatchCap {
		t.Fatalf("kept %d samples, want %d", len(got), memWatchCap)
	}
	if last := got[len(got)-1].At; got[0].At != 0 || last != memWatchCap+10 {
		t.Fatalf("clipping lost the watermarks: first at %d, last at %d", got[0].At, last)
	}
}

func TestEventKindString(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for k := EventKind(0); k < numEventKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("kind name %q repeats", s)
		}
		seen[s] = true
	}
	if got := EventKind(99).String(); got != "kind(99)" {
		t.Fatalf("unknown kind renders %q", got)
	}
}

// probeAllocs reports the allocations of one batch of transitions —
// every shard, conductor and producer call, lifecycle staging and a
// heap sample included — averaged over 1000 runs.
func probeAllocs(p *Probe) float64 {
	p.EnableLifecycle()
	return testing.AllocsPerRun(1000, func() {
		p.Launch()
		tok := p.Free(0, 2, p.Begin(0, 0))
		tok = p.Align(0, p.Step(0, 1, 1, 1, tok))
		p.StageNode(1, EvNodeDown, 1)
		p.End(0, 2, tok)
		p.Barrier(2)
		p.Decision(EvConvert, 2, 1, 1, 1)
		p.Deploy(EvDeployDefer, 2, 1, 3, 0)
		_ = p.Profiling()
	})
}

// TestProbeRecordAllocs proves the probe allocates nothing per
// transition with both views on; CI's alloc-guard step runs it (and
// the single-view tests) without race instrumentation.
func TestProbeRecordAllocs(t *testing.T) {
	if allocs := probeAllocs(NewProbe([]int{0, 2, 4}, true, true)); allocs != 0 {
		t.Fatalf("probe allocates %v per transition batch, want 0", allocs)
	}
}

// TestRecorderRecordAllocs proves the trace view records without
// allocating, and that a nil probe (both views off) allocates nothing
// either.
func TestRecorderRecordAllocs(t *testing.T) {
	if allocs := probeAllocs(NewProbe([]int{0, 2, 4}, false, true)); allocs != 0 {
		t.Fatalf("trace-only probe allocates %v per transition batch, want 0", allocs)
	}
	if allocs := probeAllocs(nil); allocs != 0 {
		t.Fatalf("nil probe allocates %v per transition batch, want 0", allocs)
	}
}

// FuzzParseTrace: whatever ParseTrace accepts exports to Chrome without
// panicking and survives json.Marshal → ParseTrace byte for byte.
func FuzzParseTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace(data)
		if err != nil {
			return
		}
		if _, err := tr.Chrome(); err != nil {
			t.Fatalf("accepted trace does not export: %v", err)
		}
		b1, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("accepted trace does not marshal: %v", err)
		}
		again, err := ParseTrace(b1)
		if err != nil {
			t.Fatalf("re-parsing the marshaled trace: %v\n%s", err, b1)
		}
		if b2, err := json.Marshal(again); err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("trace changed across Marshal → Parse (%v):\n%s\nvs\n%s", err, b1, b2)
		}
	})
}
