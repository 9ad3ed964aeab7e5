package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fixtureTrace builds a small recorder run deterministically: two
// shards, one span each with an epoch barrier, one node crash/restart
// cycle, and one campaign decision — every event category the flight
// recorder knows.
func fixtureTrace(t *testing.T) *Trace {
	t.Helper()
	r := NewRecorder([]int{0, 2, 4})
	r.EnableLifecycle()
	r.StageNode(1, EvNodeDown, 0) // t=0 crash, staged before the first span
	r.SpanBegin(0, 0)
	r.SpanBegin(1, 0)
	r.Epoch(0, 500, 1)
	r.Epoch(1, 500, 1)
	r.StageNode(3, EvNodeDark, 700)
	r.StageNode(1, EvNodeUp, 800)
	r.SpanEnd(0, 1000)
	r.SpanEnd(1, 1000)
	r.Decision(EvConvert, 1000, 1, 1, 2)
	r.Deploy(EvDeployDefer, 1000, 1, 3, 0)
	return r.Snapshot(1000)
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
	// Snapshot samples the heap once at the aligned instant.
	if len(tr.Heap) != 1 || tr.Heap[0].At != 1000 {
		t.Fatalf("heap samples = %+v, want one at 1000", tr.Heap)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	t.Parallel()
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	r.EnableLifecycle()
	r.SpanBegin(0, 0)
	r.Epoch(0, 1, 1)
	r.StageNode(0, EvNodeDown, 1)
	r.SpanEnd(0, 2)
	r.Decision(EvConvert, 2, 1, 1, 1)
	r.Deploy(EvDeployRetry, 2, 1, 0, 1)
	r.SampleHeap(2)
	if got := r.Snapshot(2); got != nil {
		t.Fatalf("nil recorder snapshot = %+v, want nil", got)
	}
	if got := r.Shards(); got != 0 {
		t.Fatalf("nil recorder Shards = %d", got)
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
	r := NewRecorder([]int{0, 1})
	r.SpanBegin(0, 0)
	for i := 0; i < ringCap+10; i++ {
		r.Epoch(0, int64(i+1), i+1)
	}
	r.SpanEnd(0, int64(ringCap+11))
	tr := r.Snapshot(int64(ringCap + 11))
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
	r := NewRecorder([]int{0, 1})
	r.EnableLifecycle()
	for i := 0; i < stageCap+3; i++ {
		r.StageNode(0, EvNodeDown, int64(i))
	}
	tr := r.Snapshot(100)
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

func TestMemWatchClip(t *testing.T) {
	t.Parallel()
	m := NewMemWatch(4)
	for i := 0; i < 10; i++ {
		m.Sample(int64(i))
	}
	got := m.Samples()
	if len(got) != 4 {
		t.Fatalf("kept %d samples, want 4", len(got))
	}
	// First watermark survives; the last slot holds the latest sample.
	if got[0].At != 0 || got[3].At != 9 {
		t.Fatalf("clipping lost the watermarks: first at %d, last at %d", got[0].At, got[3].At)
	}
	var nilWatch *MemWatch
	nilWatch.Sample(1)
	if nilWatch.Samples() != nil {
		t.Fatal("nil MemWatch not nil-safe")
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

// TestRecorderRecordAllocs proves the record path allocates nothing
// per event, enabled or disabled; CI's alloc-guard step runs it
// without race instrumentation.
func TestRecorderRecordAllocs(t *testing.T) {
	r := NewRecorder([]int{0, 2, 4})
	r.EnableLifecycle()
	allocs := testing.AllocsPerRun(1000, func() {
		_ = r.Enabled()
		r.SpanBegin(0, 0)
		r.Epoch(0, 1, 1)
		r.StageNode(1, EvNodeDown, 1)
		r.SpanEnd(0, 2)
		r.Decision(EvConvert, 2, 1, 1, 1)
		r.Deploy(EvDeployDefer, 2, 1, 3, 0)
	})
	if allocs != 0 {
		t.Fatalf("enabled record path allocates %v per event batch, want 0", allocs)
	}
	var off *Recorder
	allocs = testing.AllocsPerRun(1000, func() {
		_ = off.Enabled()
		off.SpanBegin(0, 0)
		off.Epoch(0, 1, 1)
		off.StageNode(1, EvNodeDown, 1)
		off.SpanEnd(0, 2)
		off.Decision(EvConvert, 2, 1, 1, 1)
		off.Deploy(EvDeployDefer, 2, 1, 3, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled record path allocates %v per event batch, want 0", allocs)
	}
}
