// Package experiments regenerates every table and figure in the SOL
// paper's evaluation (§6). Each experiment is a named runner that
// builds the simulated node (and/or tiered memory), runs the agents and
// baselines on the virtual clock, and reports the same rows or series
// the paper reports. The runners deploy their agents through the spec
// registry — the one path a fleet node uses — handing each its typed
// variant as the environment's baseline.
//
// Absolute numbers differ from the paper — the substrate here is a
// simulator, not the authors' Xeon testbed — but each runner's output
// is designed to preserve the paper's shape: who wins, by roughly what
// factor, and where the crossovers fall. The *Shapes tests assert those
// shapes, and testdata/fingerprint.quick.txt pins every Quick-scale
// metric; a paper-vs-measured table is ROADMAP item 1(a), not yet
// written.
//
// All experiments are deterministic: same build, same output.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sol/internal/core"
	"sol/internal/spec"
)

// Scale selects experiment duration. Quick keeps unit/bench runs fast;
// Full runs the paper's evaluation horizons.
type Scale int

const (
	// Quick runs shortened horizons (roughly 2-4x shorter).
	Quick Scale = iota
	// Full runs the complete evaluation horizons.
	Full
	// Short runs the minimum horizons on which the paper's
	// qualitative shapes still hold; `go test -short` uses it to keep
	// tier-1 latency down. Individual runners whose shapes need
	// longer horizons may round Short up to Quick.
	Short
)

// Result is one experiment's rendered output plus its key metrics.
type Result struct {
	// ID is the experiment identifier (e.g. "fig3").
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Rows is the rendered, human-readable output.
	Rows []string
	// Metrics holds named scalar results for tests and benches.
	Metrics map[string]float64
}

// String renders the result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, row := range r.Rows {
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Result) addf(format string, args ...any) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// launch deploys one agent of kind through the spec registry on env,
// with v as the environment's baseline params. Passing the typed
// variant, not a JSON Params overlay, keeps deployment off the
// experiments' allocation profile.
func launch[C any](kind string, env spec.NodeEnv, v spec.Variant[C]) (core.Handle, error) {
	env.Base = func(string) any { c := v; return &c }
	h, _, err := spec.Launch(spec.Agent{Kind: kind}, env)
	return h, err
}

// Runner executes one experiment at the given scale.
type Runner func(Scale) (*Result, error)

var registry = map[string]struct {
	title  string
	runner Runner
}{
	"table1":           {"Taxonomy of production agents (Table 1)", runTable1},
	"table2":           {"On-node learning agent survey (Table 2)", runTable2},
	"fig1":             {"SmartOverclock vs static frequencies (Figure 1)", runFig1},
	"fig2":             {"SmartOverclock data-validation safeguard vs invalid data (Figure 2)", runFig2},
	"fig3":             {"SmartOverclock model safeguard vs broken model (Figure 3)", runFig3},
	"fig4":             {"Non-blocking vs blocking actuator under model delay (Figure 4)", runFig4},
	"fig5":             {"SmartOverclock actuator safeguard in long idle phases (Figure 5)", runFig5},
	"fig6data":         {"SmartHarvest data-validation safeguard (Figure 6, left)", runFig6Data},
	"fig6model":        {"SmartHarvest model safeguard vs broken model (Figure 6, middle)", runFig6Model},
	"fig6delay":        {"SmartHarvest non-blocking vs blocking under delays (Figure 6, right)", runFig6Delay},
	"fig7":             {"SmartMemory vs static access-bit scanning (Figure 7)", runFig7},
	"fig8":             {"SmartMemory Model and Actuator safeguards (Figure 8)", runFig8},
	"ablation-epsilon": {"SmartOverclock exploration-rate ablation", runAblationEpsilon},
	"ext-sampler":      {"SmartSampler: adaptive telemetry sampling under a logging budget (extension)", runExtSampler},
	"ablation-queue":   {"SOL prediction-queue capacity ablation", runAblationQueue},
}

// IDs returns all experiment identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's title ("" if unknown).
func Title(id string) string { return registry[id].title }

// Run executes the named experiment.
func Run(id string, scale Scale) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	res, err := e.runner(scale)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = e.title
	return res, nil
}

// scaled shortens d under the reduced scales.
func scaled(s Scale, d time.Duration) time.Duration {
	switch s {
	case Quick:
		return d / 3
	case Short:
		return d / 6
	default:
		return d
	}
}

// pct formats a ratio as a signed percentage change.
func pct(ratio float64) string {
	return fmt.Sprintf("%+.1f%%", (ratio-1)*100)
}

var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
