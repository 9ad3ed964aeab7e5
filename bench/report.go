package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the machine and build a result came from, so
// a trajectory file appended from results can tell runs apart.
type fingerprint struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	GOARCH string `json:"goarch"`
	Commit string `json:"commit"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), GOARCH: runtime.GOARCH, Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The driver's checkout is not a git repository; then the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// resultFile is the JSON written beside the printed lines: raw
// per-iteration samples and the printed-only statistics included.
type resultFile struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Workloads   []*workloadResult `json:"workloads"`
	// Layers is the ladder's output when a traced pass ran.
	Layers map[string]metric `json:"layers,omitempty"`
}

// outDir is where results, span files and the ladder's journals go:
// inside the checkout, ignored by git.
func outDir() string {
	const dir = ".bench_out"
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first write into it
	return dir
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics writes one `scope name value unit` line per metric, in
// the order of defs.
func printMetrics(w io.Writer, scope string, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(w, "%s %s %.9g %s\n", scope, d.Name, v.Value, v.Unit)
		}
	}
}

// printEndToEnd writes a workload's gated metrics, then the
// information-only statistics as a comment line.
func printEndToEnd(w io.Writer, r *workloadResult) {
	printMetrics(w, r.Name, endToEnd, r.Metrics)
	printMetrics(w, r.Name, mustBeZero, r.Metrics)
	t := r.Time
	fmt.Fprintf(w, "# %s time_s: median %.4f s, iqr %.4f s", r.Name, t.Median, t.IQR)
	if t.UpperPct > 0 {
		fmt.Fprintf(w, ", p%d %.4f s", t.UpperPct, t.Upper)
	}
	fmt.Fprintf(w, ", n=%d", t.N)
	if r.Events > 0 {
		fmt.Fprintf(w, "; %.3g events/s, %.4g node-s/s", float64(r.Events)/t.FastestQuarter, r.NodeSeconds/t.FastestQuarter)
	}
	if r.GoldenSkipped != "" {
		fmt.Fprintf(w, "; golden check skipped (%s)", r.GoldenSkipped)
	}
	fmt.Fprintln(w)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# %s FAILED: %s\n", r.Name, e)
	}
}

// driverLine is the last line of output the driver parses.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printDriverLine(w io.Writer, r *workloadResult, metrics map[string]metric) error {
	line, err := json.Marshal(driverLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// gated is the subset of a workload's metrics the driver reads in the
// untraced pass.
func gated(r *workloadResult) map[string]metric {
	out := map[string]metric{}
	for _, d := range endToEnd {
		out[d.Name] = r.Metrics[d.Name]
	}
	return out
}
