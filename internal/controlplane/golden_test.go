package controlplane

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// updateGolden rewrites testdata/scenarios.golden.json from the tree —
// the file's only writer. CI runs it and fails on a diff, so the golden
// is always reproducible, never hand-edited.
var updateGolden = flag.Bool("update", false, "rewrite testdata/scenarios.golden.json from this tree")

const scenarioGoldenPath = "testdata/scenarios.golden.json"

// scenarioGolden pins Run's output on the shardedScenario fixture: the
// rendered report and the wave trace of every built-in scenario, the
// horizon-ends-mid-soak case and the no-campaign case. First captured
// from the fleet-wide-barrier campaign loop at the commit before the
// shard conductor replaced it.
type scenarioGolden struct {
	// GOARCH and Go tag the toolchain that wrote the file. Floating
	// point differs across architectures (fused multiply-add), so on
	// another GOARCH the comparison is skipped, not failed.
	GOARCH string                `json:"goarch"`
	Go     string                `json:"go"`
	Cases  map[string]goldenCase `json:"cases"`
}

// goldenCase is one run: the report's lines and the wave trace, one
// journal-format JSON event per line.
type goldenCase struct {
	Report []string `json:"report"`
	Trace  []string `json:"trace,omitempty"`
}

// runGoldenCases runs the pinned cases at the given shard count.
func runGoldenCases(t *testing.T, shards int) map[string]goldenCase {
	cases := make(map[string]Config)
	for _, scenario := range Scenarios() {
		cases["scenario/"+scenario] = shardedScenario(t, scenario, shards, 0)
	}
	// 4 waves x 2 soak epochs need 8 epochs; 12.5s gives 3 (the last
	// truncated), so the run ends mid-soak, neither completed nor
	// rolled back.
	mid := shardedScenario(t, ScenarioHealthy, shards, 0)
	mid.Fleet.Duration = 12500 * time.Millisecond
	cases["mid-soak"] = mid
	plain := shardedScenario(t, ScenarioHealthy, shards, 0)
	plain.Fleet.Duration = 10 * time.Second
	plain.Campaign = nil
	cases["no-campaign"] = plain

	out := make(map[string]goldenCase)
	for name, cfg := range cases {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s (shards=%d): %v", name, shards, err)
		}
		c := goldenCase{Report: strings.Split(rep.String(), "\n")}
		for _, ev := range rep.Trace {
			line, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			c.Trace = append(c.Trace, string(line))
		}
		out[name] = c
	}
	return out
}

// TestScenarioGolden holds Run at Shards 0 and 1 — the same one-shard
// run — to the checked-in golden, report text and wave trace byte for
// byte.
func TestScenarioGolden(t *testing.T) {
	var want scenarioGolden
	data, err := os.ReadFile(scenarioGoldenPath)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if *updateGolden {
		got := runGoldenCases(t, 0)
		// A rewrite that reproduces the cases leaves the file alone, so
		// the Go tag names the toolchain that last changed the output.
		if err == nil && want.GOARCH == runtime.GOARCH && reflect.DeepEqual(want.Cases, got) {
			return
		}
		out, err := json.MarshalIndent(scenarioGolden{GOARCH: runtime.GOARCH, Go: runtime.Version(), Cases: got}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scenarioGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v (run go test ./internal/controlplane -run TestScenarioGolden -update)", scenarioGoldenPath, err)
	}
	if want.GOARCH != runtime.GOARCH {
		t.Skipf("golden written on %s, running on %s", want.GOARCH, runtime.GOARCH)
	}
	for _, shards := range []int{0, 1} {
		got := runGoldenCases(t, shards)
		if len(got) != len(want.Cases) {
			t.Fatalf("shards=%d: %d cases, golden has %d", shards, len(got), len(want.Cases))
		}
		for name, g := range got {
			if w := want.Cases[name]; !reflect.DeepEqual(g, w) {
				t.Errorf("shards=%d %s differs from golden:\n%s\n%s\nwant:\n%s\n%s", shards, name,
					strings.Join(g.Report, "\n"), strings.Join(g.Trace, "\n"),
					strings.Join(w.Report, "\n"), strings.Join(w.Trace, "\n"))
			}
		}
	}
}
