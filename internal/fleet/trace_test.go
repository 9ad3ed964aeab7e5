package fleet

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"sol/internal/obs"
	"sol/internal/testutil"
)

// traceTestConfig is the shared traced fixture: a small fleet under
// testutil.FleetLifecycle, so the trace carries every lifecycle event kind
// alongside spans and epochs.
func traceTestConfig() Config {
	return Config{
		Nodes:     8,
		Duration:  30 * time.Second,
		Workers:   2,
		Trace:     true,
		Setup:     StandardNode(StandardNodeConfig{Seed: 11, Kinds: []string{"harvest", "overclock"}}),
		Lifecycle: testutil.FleetLifecycle,
	}
}

// detBytes is the byte-identity surface of a trace: the Deterministic
// projection, marshalled.
func detBytes(t *testing.T, tr *obs.Trace) []byte {
	t.Helper()
	if tr == nil {
		t.Fatal("run recorded no trace")
	}
	b, err := json.Marshal(tr.Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// steppedTrace runs the coordinator fixture and returns its report.
func steppedTrace(t *testing.T, cfg Config, interval time.Duration) *Report {
	t.Helper()
	rep, err := RunStepped(cfg, interval, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestTraceDeterminism is the flight recorder's byte-identity
// contract: the trace's sim-time fields are identical across runs and
// worker widths for a fixed shard count, however the run is driven.
func TestTraceDeterminism(t *testing.T) {
	t.Parallel()
	cfg := traceTestConfig()
	cfg.Shards = 4

	base := detBytes(t, steppedTrace(t, cfg, 5*time.Second).Trace)
	if !strings.Contains(string(base), "node-") {
		// EventKind marshals as an int; check the event mix instead.
		var tr obs.Trace
		if err := json.Unmarshal(base, &tr); err != nil {
			t.Fatal(err)
		}
		hasLifecycle := false
		for _, ev := range tr.Events {
			if ev.Kind == obs.EvNodeDown {
				hasLifecycle = true
				break
			}
		}
		if !hasLifecycle {
			t.Fatalf("plan injected no lifecycle events — the test is vacuous:\n%s", base)
		}
	}

	// Across runs.
	if again := detBytes(t, steppedTrace(t, cfg, 5*time.Second).Trace); string(again) != string(base) {
		t.Fatal("two identical runs produced different deterministic trace bytes")
	}
	// Across worker widths.
	for _, workers := range []int{1, 8} {
		c := cfg
		c.Workers = workers
		if got := detBytes(t, steppedTrace(t, c, 5*time.Second).Trace); string(got) != string(base) {
			t.Fatalf("worker width %d changed the deterministic trace bytes", workers)
		}
	}

	// Across shard counts the track structure legitimately differs
	// (track count = shard count, and each shard's span events are its
	// own), but the node-lifecycle projection — which nodes transitioned
	// how, when — derives from the fault plan alone and must be
	// invariant.
	baseLife := lifecycleProjection(t, base)
	if len(baseLife) == 0 {
		t.Fatal("no lifecycle events in the 4-shard trace")
	}
	for _, shards := range []int{1, 2, 3} {
		c := cfg
		c.Shards = shards
		got := lifecycleProjection(t, detBytes(t, steppedTrace(t, c, 5*time.Second).Trace))
		if !reflect.DeepEqual(got, baseLife) {
			t.Fatalf("%d shards changed the lifecycle projection:\n%v\nvs\n%v", shards, got, baseLife)
		}
	}
	// A traced Run is one free-running span of the conductor: a track
	// per shard with the same plan-derived projection, and the trace and
	// profile counts are the one-span Coordinator run's, byte for byte.
	for _, shards := range []int{0, 4} {
		c := cfg
		c.Shards, c.Profile = shards, true
		runRep, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := max(shards, 1); runRep.Trace.Shards != want {
			t.Fatalf("traced Run on %d shards recorded %d tracks, want %d", shards, runRep.Trace.Shards, want)
		}
		runBytes := detBytes(t, runRep.Trace)
		if got := lifecycleProjection(t, runBytes); !reflect.DeepEqual(got, baseLife) {
			t.Fatalf("traced Run on %d shards: lifecycle projection differs:\n%v\nvs\n%v", shards, got, baseLife)
		}
		stepped := steppedTrace(t, c, c.Duration)
		if string(detBytes(t, stepped.Trace)) != string(runBytes) {
			t.Fatalf("traced Run and the one-span Coordinator run on %d shards produced different deterministic trace bytes", shards)
		}
		if got, want := runRep.Profile.Deterministic(), stepped.Profile.Deterministic(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Run on %d shards: profile counts %+v differ from the one-span Coordinator run's %+v", shards, got, want)
		}
	}
}

// lifecycleEvent is one entry of the shard-count-invariant projection.
type lifecycleEvent struct {
	Kind obs.EventKind
	Node int
	At   int64
}

// lifecycleProjection extracts (kind, node, at) for every lifecycle
// event, ordered by node then time — the trace surface that cannot
// depend on partitioning.
func lifecycleProjection(t *testing.T, raw []byte) []lifecycleEvent {
	t.Helper()
	var tr obs.Trace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	byNode := map[int][]lifecycleEvent{}
	for _, ev := range tr.Events {
		switch ev.Kind {
		case obs.EvNodeDown, obs.EvNodeUp, obs.EvNodeDark, obs.EvNodeLit:
			byNode[ev.Node] = append(byNode[ev.Node], lifecycleEvent{Kind: ev.Kind, Node: ev.Node, At: ev.At})
		}
	}
	var out []lifecycleEvent
	for n := 0; n < 64; n++ {
		out = append(out, byNode[n]...)
	}
	return out
}

// TestTracedMatchesUntraced: tracing is pure observation — a traced
// run's report is byte-identical to an untraced one once the trace
// itself (and its heap: line) is set aside.
func TestTracedMatchesUntraced(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 3} {
		traced := traceTestConfig()
		traced.Shards = shards
		plain := traced
		plain.Trace = false

		var tracedRep, plainRep *Report
		if shards == 0 {
			var err error
			if tracedRep, err = Run(traced); err != nil {
				t.Fatal(err)
			}
			if plainRep, err = Run(plain); err != nil {
				t.Fatal(err)
			}
		} else {
			tracedRep = steppedTrace(t, traced, 5*time.Second)
			plainRep = steppedTrace(t, plain, 5*time.Second)
		}
		if tracedRep.Trace == nil {
			t.Fatalf("shards=%d: traced run recorded no trace", shards)
		}
		if plainRep.Trace != nil {
			t.Fatalf("shards=%d: untraced run recorded a trace", shards)
		}
		if !strings.Contains(tracedRep.String(), "heap:") {
			t.Fatalf("shards=%d: traced report has no heap: line:\n%s", shards, tracedRep)
		}
		if strings.Contains(plainRep.String(), "heap:") {
			t.Fatalf("shards=%d: untraced report renders a heap: line:\n%s", shards, plainRep)
		}
		tracedRep.Trace = nil
		if !reflect.DeepEqual(tracedRep, plainRep) {
			t.Fatalf("shards=%d: tracing changed the report:\n%v\nvs\n%v", shards, tracedRep, plainRep)
		}
		if tracedRep.String() != plainRep.String() {
			t.Fatalf("shards=%d: tracing changed the rendered report", shards)
		}
	}
}

// TestTraceSpanStructure pins the conductor-driver trace shape: one
// track per shard, each bracketed by balanced span begin/end pairs on
// the aligned grid, epochs only where stepping happened.
func TestTraceSpanStructure(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Nodes:    6,
		Duration: 10 * time.Second,
		Workers:  3,
		Shards:   3,
		Trace:    true,
		Setup:    StandardNode(StandardNodeConfig{Seed: 3, Kinds: []string{"overclock"}}),
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co.StopAll()
	co.StepFor(4 * time.Second)
	co.StepFor(6 * time.Second)
	tr := co.Probe().Trace()
	if tr == nil || tr.Shards != 3 {
		t.Fatalf("trace = %+v, want 3 shard tracks", tr)
	}
	for s := 0; s < 3; s++ {
		evs := tr.Track(s)
		var kinds []obs.EventKind
		var ats []int64
		for _, ev := range evs {
			kinds = append(kinds, ev.Kind)
			ats = append(ats, ev.At)
		}
		wantKinds := []obs.EventKind{obs.EvSpanBegin, obs.EvSpanEnd, obs.EvSpanBegin, obs.EvSpanEnd}
		wantAts := []int64{0, int64(4 * time.Second), int64(4 * time.Second), int64(10 * time.Second)}
		if !reflect.DeepEqual(kinds, wantKinds) || !reflect.DeepEqual(ats, wantAts) {
			t.Fatalf("track %d = %v at %v, want %v at %v", s, kinds, ats, wantKinds, wantAts)
		}
	}
	// Two spans, two heap samples on the conductor schedule; Trace()
	// adds one more at snapshot.
	if len(tr.Heap) != 3 {
		t.Fatalf("heap samples = %d, want 3 (one per span + snapshot)", len(tr.Heap))
	}
}
