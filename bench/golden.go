package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// goldenSeed is the only seed goldens exist for; other seeds check
// verdicts and cross-iteration determinism.
const goldenSeed = 1

// goldenPath is where -update-golden writes, relative to the repo root
// the command runs from.
const goldenPath = "bench/golden.json"

//go:embed golden.json
var goldenJSON []byte

// goldenFile pins every workload's simulated output at goldenSeed: the
// Report.String() lines of the fleet workloads and paper_short's
// metric values at %.12g. A speed-up must leave all of it identical.
// The repo holds no paper-number reference, so this measures drift
// from the checked-in output, not error against the paper.
type goldenFile struct {
	// GOARCH and Go tag the toolchain that wrote the file. Floating
	// point differs across architectures (fused multiply-add), so on
	// another GOARCH the comparison is skipped, not failed.
	GOARCH    string              `json:"goarch"`
	Go        string              `json:"go"`
	Seed      uint64              `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

func loadGolden() (*goldenFile, error) {
	g := &goldenFile{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	return g, nil
}

// compare counts the golden lines of workload that differ from lines;
// skipped names why no comparison was made.
func (g *goldenFile) compare(workload string, seed uint64, quick bool, lines []string) (mismatches int, skipped string) {
	want, ok := g.Workloads[workload]
	switch {
	case quick:
		return 0, "quick run"
	case seed != g.Seed:
		return 0, fmt.Sprintf("goldens are for seed %d", g.Seed)
	case g.GOARCH != runtime.GOARCH:
		return 0, fmt.Sprintf("goldens written on %s, running on %s", g.GOARCH, runtime.GOARCH)
	case !ok:
		return 0, "no golden for this workload; run -update-golden"
	}
	return diffLines(want, lines), ""
}

func diffLines(want, got []string) int {
	n := 0
	for i := 0; i < max(len(want), len(got)); i++ {
		if i >= len(want) || i >= len(got) || want[i] != got[i] {
			n++
		}
	}
	return n
}

// updateGolden runs every workload once at goldenSeed and rewrites the
// golden file — its only writer.
func updateGolden() error {
	g := goldenFile{GOARCH: runtime.GOARCH, Go: runtime.Version(), Seed: goldenSeed, Workloads: map[string][]string{}}
	for _, w := range workloads {
		iter, err := w.build(goldenSeed, false)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		out, err := iter(nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		g.Workloads[w.name] = out.lines
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
