package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// updateFingerprint rewrites testdata/fingerprint.quick.txt from the
// tree — the file's only writer. CI runs it and fails on any diff.
var updateFingerprint = flag.Bool("update", false, "rewrite testdata/fingerprint.quick.txt from this tree")

const fingerprintPath = "testdata/fingerprint.quick.txt"

// fingerprint renders every experiment's Quick-scale metrics, sorted,
// one "id metric value" line each.
func fingerprint(t *testing.T) string {
	var b strings.Builder
	for _, id := range IDs() {
		r, err := Run(id, Quick)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s %.12g\n", id, k, r.Metrics[k])
		}
	}
	return b.String()
}

// TestMetricsFingerprint holds every metric of every experiment to the
// checked-in fingerprint, byte for byte: performance work on the engine
// or the simulated substrate may not move a figure. The first line tags
// the GOARCH and Go version that wrote the file; float formatting and
// math kernels are only pinned per architecture, so another one skips.
func TestMetricsFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("the fingerprint is Quick scale; -short runs Short")
	}
	data, err := os.ReadFile(fingerprintPath)
	header, want, _ := bytes.Cut(data, []byte("\n"))
	var goarch string
	if fields := strings.Fields(string(header)); len(fields) == 3 && fields[0] == "#" {
		goarch = fields[1]
	}
	if *updateFingerprint {
		got := fingerprint(t)
		// A rewrite that reproduces the metrics leaves the file alone, so
		// the Go tag names the toolchain that last changed the output.
		if err == nil && goarch == runtime.GOARCH && got == string(want) {
			return
		}
		out := fmt.Sprintf("# %s %s\n%s", runtime.GOARCH, runtime.Version(), got)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err == nil && goarch == "" {
		err = fmt.Errorf("%s: first line %q is not \"# GOARCH goversion\"", fingerprintPath, header)
	}
	if err != nil {
		t.Fatalf("%v (run go test ./internal/experiments -run TestMetricsFingerprint -update)", err)
	}
	if goarch != runtime.GOARCH {
		t.Skipf("fingerprint written on %q, running on %s", goarch, runtime.GOARCH)
	}
	gotLines := strings.Split(fingerprint(t), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d fingerprint lines, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
