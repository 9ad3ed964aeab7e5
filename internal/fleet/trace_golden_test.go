package fleet_test

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sol/internal/controlplane"
	"sol/internal/faults"
	"sol/internal/fleet"
	"sol/internal/obs"
	"sol/internal/shard"
)

// updateTraceGolden rewrites testdata/trace.golden.json from the tree —
// the file's only writer. CI runs it and fails on a diff.
var updateTraceGolden = flag.Bool("update", false, "rewrite testdata/trace.golden.json from this tree")

const traceGoldenPath = "testdata/trace.golden.json"

// traceGolden pins the deterministic half of both instrumentation
// views on real runs: every trace event and heap-sample instant, and
// every shard's profile counts.
type traceGolden struct {
	// GOARCH and Go tag the toolchain that wrote the file; campaign
	// decisions follow floating-point health gates, so on another
	// GOARCH the comparison is skipped, not failed.
	GOARCH string                     `json:"goarch"`
	Go     string                     `json:"go"`
	Cases  map[string]traceGoldenCase `json:"cases"`
}

// traceGoldenCase is one run. Trace holds Trace.Deterministic(): the
// envelope (events and heap emptied) on the first line, then one
// event per line, then one heap sample per line. Profile holds
// Profile.Deterministic(), one shard per line.
type traceGoldenCase struct {
	Trace   []string `json:"trace"`
	Profile []string `json:"profile"`
}

func goldenLine(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func goldenCase(t *testing.T, tr *obs.Trace, p *obs.Profile) traceGoldenCase {
	t.Helper()
	if tr == nil || p == nil {
		t.Fatal("golden run must be traced and profiled")
	}
	det := tr.Deterministic()
	env := *det
	env.Events, env.Heap = nil, nil
	c := traceGoldenCase{Trace: []string{goldenLine(t, env)}}
	for _, ev := range det.Events {
		c.Trace = append(c.Trace, goldenLine(t, ev))
	}
	for _, hs := range det.Heap {
		c.Trace = append(c.Trace, goldenLine(t, hs))
	}
	for _, sp := range p.Deterministic().Shards {
		c.Profile = append(c.Profile, goldenLine(t, sp))
	}
	return c
}

// runTraceGoldenCases runs the pinned cases: a fleet under a lifecycle
// plan stepped on four shards (span, epoch and lifecycle events),
// and a two-shard crash-storm rollout (decision and deploy events),
// each with both views on.
func runTraceGoldenCases(t *testing.T) map[string]traceGoldenCase {
	// The lifecycle trace fixture (traceTestConfig in the package's
	// own tests), on four shards with both views on.
	cfg := fleet.Config{
		Nodes:    8,
		Duration: 30 * time.Second,
		Workers:  2,
		Shards:   4,
		Profile:  true,
		Trace:    true,
		Setup:    fleet.StandardNode(fleet.StandardNodeConfig{Seed: 11, Kinds: []string{"harvest", "overclock"}}),
		Lifecycle: faults.Plan{
			faults.Crash{At: 13500 * time.Millisecond, Frac: 0.4, Seed: 31},
			faults.Flap{Start: 5 * time.Second, Down: 4 * time.Second, Period: 10 * time.Second, Cycles: 2, Frac: 0.5, Seed: 32},
			faults.Blackout{From: 10 * time.Second, Until: 20 * time.Second, Frac: 0.3, Seed: 33},
		},
	}
	co, err := fleet.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co.StopAll()
	// Step each shard's first node at 2.5 s to mid-horizon, then
	// free-run the whole fleet to the end.
	con := co.Conductor()
	err = co.Span(shard.Span{
		Until:    15 * time.Second,
		Interval: 2500 * time.Millisecond,
		Stepped: func(s int) []int {
			lo, _ := con.Cells(s)
			return []int{lo}
		},
		OnEpoch: func(s, epoch int, at, step time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	co.StepFor(cfg.Duration - co.Elapsed())
	rep := co.Report()
	out := map[string]traceGoldenCase{"fleet/stepped-4-shards": goldenCase(t, rep.Trace, rep.Profile)}

	rc, err := controlplane.NewScenario(controlplane.ScenarioSpec{
		Scenario: controlplane.ScenarioCrashStorm,
		Nodes:    16,
		Duration: 65 * time.Second,
		Interval: 5 * time.Second,
		Kinds:    []string{"harvest"},
		Seed:     1,
		Shards:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc.Fleet.Trace, rc.Fleet.Profile = true, true
	rrep, err := controlplane.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	out["rollout/crash-storm-2-shards"] = goldenCase(t, rrep.Fleet.Trace, rrep.Fleet.Profile)
	return out
}

// TestTraceGolden holds the trace and profile counts of real runs to
// the checked-in golden, line for line. -update rewrites it.
func TestTraceGolden(t *testing.T) {
	var want traceGolden
	raw, err := os.ReadFile(traceGoldenPath)
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	got := traceGolden{GOARCH: runtime.GOARCH, Go: runtime.Version(), Cases: runTraceGoldenCases(t)}
	if *updateTraceGolden {
		// A rewrite that reproduces the cases leaves the file alone, so
		// the Go tag names the toolchain that last changed the output.
		if err == nil && want.GOARCH == runtime.GOARCH && reflect.DeepEqual(want.Cases, got.Cases) {
			return
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v (run go test ./internal/fleet -run TestTraceGolden -update)", traceGoldenPath, err)
	}
	if want.GOARCH != runtime.GOARCH {
		t.Skipf("golden written on %s, running on %s", want.GOARCH, runtime.GOARCH)
	}
	for name, w := range want.Cases {
		g, ok := got.Cases[name]
		if !ok {
			t.Errorf("%s: case not run", name)
			continue
		}
		for _, part := range []struct {
			what      string
			got, want []string
		}{{"trace", g.Trace, w.Trace}, {"profile", g.Profile, w.Profile}} {
			if reflect.DeepEqual(part.got, part.want) {
				continue
			}
			for i := 0; i < max(len(part.got), len(part.want)); i++ {
				var gl, wl string
				if i < len(part.got) {
					gl = part.got[i]
				}
				if i < len(part.want) {
					wl = part.want[i]
				}
				if gl != wl {
					t.Errorf("%s %s line %d:\n got %s\nwant %s", name, part.what, i, gl, wl)
					break
				}
			}
		}
	}
	if len(got.Cases) != len(want.Cases) {
		t.Errorf("ran %d cases, golden holds %d", len(got.Cases), len(want.Cases))
	}
}
