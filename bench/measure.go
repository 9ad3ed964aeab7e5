package main

import (
	"fmt"
	"sort"
)

// coldLaunches is how many times a run sets the workload up from a
// fresh process; setup_s is the fastest of them.
const coldLaunches = 5

// options are the knobs of one benchmark invocation.
type options struct {
	seed    uint64
	seconds float64
	quick   bool
}

// timedSpec is the child that repeats w for seconds; a quick run times
// one iteration instead.
func (o options) timedSpec(w workload, seconds float64) childSpec {
	spec := childSpec{Workload: w.name, Seed: o.seed, Seconds: seconds, Iters: byTime, Quick: o.quick}
	if o.quick {
		spec.Iters = 1
	}
	return spec
}

// workloadResult is everything measured on one workload: the gated
// metrics, the raw samples they were reduced from, and — after a traced
// pass — the workload's own per-layer metrics and self-time table.
type workloadResult struct {
	Name    string            `json:"name"`
	Metrics map[string]metric `json:"metrics"`
	// Attempted and Failed count iterations over every child launched.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// GoldenSkipped says why sim_mismatches was not checked, if so.
	GoldenSkipped string `json:"golden_skipped,omitempty"`
	// Time is the printed-only spread beside time_s.
	Time         spread       `json:"time_spread"`
	Samples      []iterSample `json:"samples"`
	SetupSamples []float64    `json:"setup_samples_s"`
	Events       uint64       `json:"events_per_iter"`
	NodeSeconds  float64      `json:"node_seconds_per_iter"`

	Layer     map[string]metric `json:"layer_metrics,omitempty"`
	SelfTimes []selfRow         `json:"self_times,omitempty"`
	spans     []span
	// plain is the untraced timed child.
	plain *childResult
}

func (r *workloadResult) correct() bool {
	return r.Failed == 0 && r.Metrics["sim_mismatches"].Value == 0
}

func (r *workloadResult) absorb(c *childResult, digest string) {
	r.Attempted += c.Attempted
	r.Failed += c.Failed
	r.Errors = append(r.Errors, c.Errors...)
	if digest != "" && c.Digest != digest {
		r.Failed++
		r.Errors = append(r.Errors, "a cold launch's output differs from the timed run's")
	}
}

func column(samples []iterSample, f func(iterSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// measureEndToEnd runs the untraced pass of one workload: cold
// launches for setup_s, then one child that repeats the fixed work for
// the time budget.
func measureEndToEnd(w workload, g *goldenFile, o options) (*workloadResult, error) {
	r := &workloadResult{Name: w.name, Metrics: map[string]metric{}}
	spec := o.timedSpec(w, o.seconds)
	timed, err := launchWorkload(spec)
	if err != nil {
		return nil, err
	}
	r.absorb(timed, "")
	r.SetupSamples = append(r.SetupSamples, timed.SetupSeconds)
	cold := spec
	cold.Iters = 0
	for i := 1; i < coldLaunches && !o.quick; i++ {
		c, err := launchWorkload(cold)
		if err != nil {
			return nil, err
		}
		r.absorb(c, timed.Digest)
		r.SetupSamples = append(r.SetupSamples, c.SetupSeconds)
	}

	r.Samples, r.plain = timed.Samples, timed
	r.Events, r.NodeSeconds = timed.Events, timed.NodeSeconds
	secs := column(r.Samples, func(s iterSample) float64 { return s.Seconds })
	r.Time = summarize(secs)
	mismatches, skipped := g.compare(w.name, o.seed, o.quick, timed.Lines)
	r.GoldenSkipped = skipped

	// The median of per-iteration peaks where the kernel gives them,
	// the child's lifetime peak where it does not.
	peakKB := median(column(r.Samples, func(s iterSample) float64 { return float64(s.PeakRSSKB) }))
	if peakKB == 0 {
		peakKB = float64(timed.MaxRSSKB)
	}
	values := map[string]float64{
		"time_s":            r.Time.FastestQuarter,
		"allocs_per_iter":   median(column(r.Samples, func(s iterSample) float64 { return float64(s.Mallocs) })),
		"alloc_mb_per_iter": median(column(r.Samples, func(s iterSample) float64 { return float64(s.Bytes) })) / 1e6,
		"peak_rss_mb":       peakKB / 1024,
		"setup_s":           minOf(r.SetupSamples),
		"failed_frac":       float64(r.Failed) / float64(r.Attempted),
		"sim_mismatches":    float64(mismatches),
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), mustBeZero...) {
		r.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return r, nil
}

// measureTraced runs the traced pass of one workload and fills
// r.Layer, r.SelfTimes and r.spans. r is the workload's untraced
// result when that pass ran in this invocation; otherwise an untraced
// child supplies the reference time, and the two share the budget.
// Either way both sides get the same seconds: the fastest quarter of
// fewer samples reads higher.
func measureTraced(w workload, r *workloadResult, o options) (*workloadResult, error) {
	spec := o.timedSpec(w, o.seconds)
	if r == nil {
		spec.Seconds = o.seconds / 2
		r = &workloadResult{Name: w.name, Metrics: map[string]metric{}}
		plain, err := launchWorkload(spec)
		if err != nil {
			return nil, err
		}
		r.absorb(plain, "")
		r.plain = plain
		r.Time = summarize(column(plain.Samples, func(s iterSample) float64 { return s.Seconds }))
	}
	spec.Traced = true
	traced, err := launchWorkload(spec)
	if err != nil {
		return nil, err
	}
	r.absorb(traced, r.plain.Digest)
	r.spans, r.SelfTimes = traced.Spans, selfTimes(traced.Spans)

	iters := float64(len(r.plain.Samples))
	tracedTime := fastestQuarter(column(traced.Samples, func(s iterSample) float64 { return s.Seconds }))
	values := map[string]float64{
		"gc.cycles_per_iter":        float64(r.plain.GCCycles) / iters,
		"gc.pause_ms_per_iter":      float64(r.plain.GCPauseNS) / 1e6 / iters,
		"gc.cpu_frac":               r.plain.GCCPUFrac,
		"bench.trace_overhead_frac": tracedTime/r.Time.FastestQuarter - 1,
	}
	r.Layer = map[string]metric{}
	for name, v := range values {
		unit, _ := unitOf(perLayer, name)
		r.Layer[name] = metric{Value: v, Unit: unit}
	}
	return r, nil
}

// checkLadder verifies the ladder printed exactly the names the
// perLayer table declares for it.
func checkLadder(got map[string]metric) error {
	var missing []string
	want := 0
	for _, d := range perLayer {
		if workloadLayer[d.Name] {
			continue
		}
		want++
		if _, ok := got[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 || len(got) != want {
		sort.Strings(missing)
		return fmt.Errorf("layer ladder printed %d metrics, want %d (missing %v)", len(got), want, missing)
	}
	return nil
}
