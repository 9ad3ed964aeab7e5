// Command bench is the repo's benchmark: five fixed-work workloads
// driven through the public functions of the simulator's packages,
// timed from outside, plus a layer ladder that prices each package on
// its own. BENCHMARK.json at the repo root declares what it prints;
// README.md here explains why it measures the way it does.
//
//	go run ./bench                       every workload, end-to-end metrics
//	go run ./bench -workload canary_2k   one workload (the driver's form)
//	go run ./bench -trace spans.json     also the traced pass: per-layer metrics + span file
//	go run ./bench -selfcheck            two sets on one binary must agree within the bounds
//	go run ./bench -update-golden        rewrite bench/golden.json (seed 1)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// ladderChild is the -child name of the per-layer pass.
const ladderChild = "layers"

func main() {
	var (
		name      = flag.String("workload", "", "run one workload (default: all): "+strings.Join(workloadNames(), ", "))
		seed      = flag.Uint64("seed", goldenSeed, "workload seed; goldens exist for seed 1")
		seconds   = flag.Float64("seconds", 10, "timed seconds per workload")
		trace     = flag.String("trace", "0", "0: untraced pass; 1: traced pass only, spans to .bench_out/spans.json; else: both passes, spans to this file")
		out       = flag.String("out", filepath.Join(".bench_out", "result.json"), "result file: fingerprint, raw samples, spread statistics")
		quick     = flag.Bool("quick", false, "smoke: shrunk fleets, one timed iteration, no goldens")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end set twice and fail if a metric pair disagrees by more than its bound")
		update    = flag.Bool("update-golden", false, "regenerate bench/golden.json and exit")

		child       = flag.String("child", "", "internal: run as a measurement child")
		childIters  = flag.Int("child-iters", byTime, "internal: exact timed iteration count")
		childTraced = flag.Bool("child-traced", false, "internal: record spans")
		childStart  = flag.Int64("child-start", 0, "internal: parent's launch stamp, unix ns")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	o := options{seed: *seed, seconds: *seconds, quick: *quick}

	switch {
	case *child == ladderChild:
		m, err := runLadderChild(*seed)
		emitChild(m, err)
		return
	case *child != "":
		res, err := runWorkloadChild(childSpec{
			Workload: *child, Seed: *seed, Seconds: *seconds, Iters: *childIters,
			Quick: *quick, Traced: *childTraced,
		}, *childStart)
		emitChild(res, err)
		return
	case *update:
		if err := updateGolden(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", goldenPath)
		return
	}

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		selected = []workload{w}
	}
	g, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	if *selfcheck {
		if err := runSelfcheck(selected, g, o); err != nil {
			fatal(err)
		}
		return
	}
	if err := run(selected, g, o, *trace, *out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// emitChild prints a child's result as the one JSON line its parent
// decodes.
func emitChild(v any, err error) {
	if err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
		fatal(err)
	}
}

// run measures the selected workloads and prints every metric by name.
// With exactly one workload the last line is the driver's JSON object.
func run(selected []workload, g *goldenFile, o options, trace, out string) error {
	untraced, traced := trace != "1", trace != "0"
	spanPath := trace
	if trace == "1" {
		spanPath = filepath.Join(outDir(), "spans.json")
	}
	file := resultFile{Fingerprint: machineFingerprint(), Seed: o.seed, Seconds: o.seconds}
	ok := true
	for _, w := range selected {
		var r *workloadResult
		var err error
		if untraced {
			if r, err = measureEndToEnd(w, g, o); err != nil {
				return err
			}
			printEndToEnd(os.Stdout, r)
		}
		if traced {
			if r, err = measureTraced(w, r, o); err != nil {
				return err
			}
			printMetrics(os.Stdout, w.name, perLayer, r.Layer)
			fmt.Printf("# %s self time by span (traced pass):\n%s", w.name, renderSelfTimes(r.SelfTimes))
		}
		ok = ok && r.correct()
		file.Workloads = append(file.Workloads, r)
	}
	if traced {
		layers, err := launchLadder(o.seed)
		if err == nil {
			err = checkLadder(layers)
		}
		if err != nil {
			return err
		}
		file.Layers = layers
		printMetrics(os.Stdout, "layers", perLayer, layers)
		spans := map[string][]span{}
		for _, r := range file.Workloads {
			spans[r.Name] = r.spans
		}
		data, err := chromeTrace(spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(spanPath, data, 0o644); err != nil {
			return err
		}
		fmt.Println("# spans written to", spanPath)
	}
	if err := writeJSON(out, file); err != nil {
		return err
	}
	fmt.Println("# result written to", out)

	if len(selected) == 1 {
		r := file.Workloads[0]
		metrics := gated(r)
		if trace == "1" {
			metrics = map[string]metric{}
			for n, m := range file.Layers {
				metrics[n] = m
			}
			for n, m := range r.Layer {
				metrics[n] = m
			}
		}
		if err := printDriverLine(os.Stdout, r, metrics); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a workload failed an iteration or drifted from its golden (see FAILED lines and sim_mismatches)")
	}
	return nil
}

// runSelfcheck proves the bounds on this machine: two end-to-end sets
// from one binary must agree on every gated metric within its bound.
func runSelfcheck(selected []workload, g *goldenFile, o options) error {
	var sets [2][]*workloadResult
	for i := range sets {
		for _, w := range selected {
			r, err := measureEndToEnd(w, g, o)
			if err != nil {
				return err
			}
			if !r.correct() {
				printEndToEnd(os.Stdout, r)
				return fmt.Errorf("%s: set %d was not correct", w.name, i+1)
			}
			sets[i] = append(sets[i], r)
		}
	}
	bad := 0
	fmt.Printf("%-20s %-18s %14s %14s %8s %7s\n", "workload", "metric", "set1", "set2", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if diff > d.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-20s %-18s %14.6g %14.6g %7.2f%% %6.1f%%%s\n", a.Name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric pairs disagree by more than their bound", bad)
	}
	fmt.Println("selfcheck: every metric pair agrees within its bound")
	return nil
}
