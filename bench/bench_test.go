package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"sol/internal/controlplane"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestEstimatorOnFixedSamples(t *testing.T) {
	// 1..30 shuffled: fastest quarter is the mean of the 8 smallest.
	var samples []float64
	for i := 0; i < 30; i++ {
		samples = append(samples, float64((i*7)%30+1))
	}
	sp := summarize(samples)
	if want := 4.5; !near(sp.FastestQuarter, want) {
		t.Errorf("fastest quarter = %v, want %v", sp.FastestQuarter, want)
	}
	if want := 15.5; !near(sp.Median, want) {
		t.Errorf("median = %v, want %v", sp.Median, want)
	}
	if want := 14.5; !near(sp.IQR, want) {
		t.Errorf("iqr = %v, want %v", sp.IQR, want)
	}
	// The 20th smallest of 30 has exactly ten samples beyond it: p66.
	if sp.Upper != 20 || sp.UpperPct != 66 || sp.N != 30 {
		t.Errorf("upper = %v at p%d of n=%d, want 20 at p66 of 30", sp.Upper, sp.UpperPct, sp.N)
	}

	// Below 20 samples no upper percentile has ten samples beyond it.
	few := summarize(samples[:19])
	if few.UpperPct != 0 || few.Upper != 0 {
		t.Errorf("upper percentile printed for 19 samples: p%d", few.UpperPct)
	}
	// A quarter of fewer than four samples is still one sample.
	if got := fastestQuarter([]float64{3, 1, 2}); got != 1 {
		t.Errorf("fastest quarter of 3 samples = %v, want the minimum", got)
	}
	if got := fastestQuarter([]float64{5, 1, 2, 3, 4}); !near(got, 1.5) {
		t.Errorf("fastest quarter of 5 samples = %v, want mean of the 2 smallest", got)
	}
	if fastestQuarter(nil) != 0 || median(nil) != 0 || minOf(nil) != 0 {
		t.Error("empty samples must reduce to 0")
	}
	// One slow outlier moves the mean, not the gated statistic.
	calm := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	noisy := []float64{1, 1, 1, 1, 1, 1, 1, 9}
	if fastestQuarter(calm) != fastestQuarter(noisy) {
		t.Error("fastest quarter moved with a slow outlier")
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "Run", Start: 10, End: 70},
		{ID: 3, Parent: 2, Name: "step", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "step", Start: 45, End: 60},
		{ID: 5, Parent: 1, Name: "Report", Start: 70, End: 90},
		{ID: 6, Parent: 0, Name: "iteration", Start: 100, End: 130},
	}
	got := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	want := map[string]selfRow{
		"iteration": {Name: "iteration", Count: 2, TotalNS: 130, SelfNS: 50}, // (100 - 60 - 20) + 30
		"Run":       {Name: "Run", Count: 1, TotalNS: 60, SelfNS: 25},        // 60 - (20 + 15)
		"step":      {Name: "step", Count: 2, TotalNS: 35, SelfNS: 35},
		"Report":    {Name: "Report", Count: 1, TotalNS: 20, SelfNS: 20},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if rows := selfTimes(spans); rows[0].Name != "iteration" || rows[len(rows)-1].Name != "Report" {
		t.Errorf("rows not sorted by self time: %+v", rows)
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	var off *tracer
	off.setIter(3)
	off.end(off.begin(0, "x")) // must not panic
	tr := newTracer()
	tr.setIter(2)
	root := tr.begin(0, "iteration")
	kid := tr.begin(root, "fleet.Run")
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Iter != 2 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].End < tr.spans[1].Start {
		t.Errorf("span stamps out of order: %+v", tr.spans)
	}
	data, err := chromeTrace(map[string][]span{"w": tr.spans})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 { // process name + two spans
		t.Errorf("%d trace events, want 3", len(doc.TraceEvents))
	}
}

// benchmarkJSON mirrors the driver's schema for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the tables
// the program prints from to each other, both ways.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "go run ./bench" || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("command %v paths %v, want `go run ./bench` and [bench]", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q / %q, program has %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d]: declared %+v, program has %+v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bound %v unit %q", m.Name, m.Bound, m.Unit)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, program prints %d (cap 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if got := (metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d]: declared %+v, program has %+v", i, got, perLayer[i])
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for n := range workloadLayer {
		if _, ok := unitOf(perLayer, n); !ok {
			t.Errorf("workload-layer metric %s is not in the per-layer table", n)
		}
	}
}

func TestCheckLadderWantsExactlyTheDeclaredNames(t *testing.T) {
	full := map[string]metric{}
	for _, d := range perLayer {
		if !workloadLayer[d.Name] {
			full[d.Name] = metric{Unit: d.Unit}
		}
	}
	if err := checkLadder(full); err != nil {
		t.Errorf("complete ladder rejected: %v", err)
	}
	delete(full, "clock.step_ns")
	if err := checkLadder(full); err == nil || !strings.Contains(err.Error(), "clock.step_ns") {
		t.Errorf("missing metric not named: %v", err)
	}
}

func TestDriverLineHasExactlyTheContractKeys(t *testing.T) {
	r := &workloadResult{Attempted: 7, Metrics: map[string]metric{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), mustBeZero...) {
		r.Metrics[d.Name] = metric{Value: 1, Unit: d.Unit}
	}
	r.Metrics["sim_mismatches"] = metric{Unit: "count"}
	var buf bytes.Buffer
	if err := printDriverLine(&buf, r, gated(r)); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("driver line lacks %q", k)
		}
	}
	var metrics map[string]metric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || len(metrics) != len(endToEnd) {
		t.Errorf("driver line has %d keys and %d metrics, want 4 and %d", len(line), len(metrics), len(endToEnd))
	}
	if string(line["correct"]) != "true" {
		t.Errorf("correct = %s", line["correct"])
	}
	r.Metrics["sim_mismatches"] = metric{Value: 2, Unit: "count"}
	if r.correct() {
		t.Error("a run that drifted from its golden reads as correct")
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Seed != goldenSeed || g.GOARCH == "" || g.Go == "" {
		t.Errorf("golden tags: seed %d goarch %q go %q", g.Seed, g.GOARCH, g.Go)
	}
	for _, w := range workloads {
		if len(g.Workloads[w.name]) == 0 {
			t.Errorf("no golden lines for %s", w.name)
		}
	}
	if n := len(g.Workloads["paper_short"]); n != paperMetricCount {
		t.Errorf("paper_short golden pins %d metrics, want %d", n, paperMetricCount)
	}

	lines := g.Workloads["node_batch"]
	if g.GOARCH == runtime.GOARCH {
		if n, skipped := g.compare("node_batch", goldenSeed, false, lines); n != 0 || skipped != "" {
			t.Errorf("golden against itself: %d mismatches, skipped %q", n, skipped)
		}
		drift := append([]string{"drifted"}, lines[1:]...)
		if n, _ := g.compare("node_batch", goldenSeed, false, append(drift, "extra")); n != 2 {
			t.Errorf("one changed and one extra line counted as %d mismatches", n)
		}
	}
	if _, skipped := g.compare("node_batch", goldenSeed+1, false, nil); skipped == "" {
		t.Error("another seed must skip the golden check, not fail it")
	}
	other := *g
	other.GOARCH = "not-" + runtime.GOARCH
	if n, skipped := other.compare("node_batch", goldenSeed, false, nil); n != 0 || skipped == "" {
		t.Error("another GOARCH must skip the golden check, not fail it")
	}
}

// TestQuickSmoke runs one iteration of every workload on its shrunk
// fleet, traced, and checks the verdict logic without goldens.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			iter, err := w.build(3, true)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			root := tr.begin(0, "iteration")
			out, err := iter(tr, root)
			tr.end(root)
			if err != nil {
				t.Fatalf("verdict: %v", err)
			}
			if len(out.lines) == 0 {
				t.Error("no simulated output to compare")
			}
			if len(tr.spans) < 2 {
				t.Errorf("%d spans recorded, want the iteration and at least one public call", len(tr.spans))
			}
			for _, s := range tr.spans[1:] {
				if s.Parent == 0 || s.End < s.Start {
					t.Errorf("span %+v has no parent or runs backwards", s)
				}
			}
		})
	}
}

func TestRolloutVerdictsRejectTheWrongOutcome(t *testing.T) {
	healthy := &controlplane.Report{Completed: true, Converted: rolloutNodes, Trace: make([]controlplane.WaveEvent, 8)}
	if err := checkHealthy(healthy); err != nil {
		t.Errorf("healthy outcome rejected: %v", err)
	}
	// A crash storm that looks like a healthy run never exercised the
	// fault path.
	if err := checkCrashStorm(healthy); err == nil {
		t.Error("crash-storm verdict accepted a run with no unconverted nodes")
	}
	storm := &controlplane.Report{Completed: true, Converted: 26, Unconverted: 6, Trace: make([]controlplane.WaveEvent, 12)}
	if err := checkCrashStorm(storm); err != nil {
		t.Errorf("crash-storm outcome rejected: %v", err)
	}
	if err := checkHealthy(storm); err == nil {
		t.Error("healthy verdict accepted a partly converted fleet")
	}
	rolled := &controlplane.Report{RolledBack: true, Trace: make([]controlplane.WaveEvent, 8)}
	if checkHealthy(rolled) == nil || checkCrashStorm(rolled) == nil {
		t.Error("a rolled-back campaign passed a verdict")
	}
}

func TestPaperShortOrderFollowsTheSeed(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(0); seed < 3; seed++ {
		seen[strings.Join(paperOrder(seed), ",")] = true
	}
	if len(seen) != 3 {
		t.Errorf("three seeds gave %d distinct orders", len(seen))
	}
	if got := strings.Join(paperOrder(3), ","); got != strings.Join(paperIDs, ",") {
		t.Errorf("seed 3 order %s, want the declared order", got)
	}
}
