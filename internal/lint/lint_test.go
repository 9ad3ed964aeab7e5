package lint_test

import (
	"bytes"
	"fmt"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"sol/internal/lint"
	"sol/internal/lint/analysis"
	"sol/internal/lint/analysistest"
	"sol/internal/lint/load"
	"sol/internal/lint/wirelock"
)

func TestWalltime(t *testing.T) {
	// simdemo proves the analyzer fires and that both allow forms
	// (trailing and standalone) suppress; the testdata clock package
	// proves the exempt boundary stays silent with no annotations.
	analysistest.Run(t, "testdata", lint.Walltime,
		"sol/internal/simdemo", "sol/internal/clock")
}

func TestSeedrand(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Seedrand, "sol/internal/randdemo")
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Maporder, "maporder/a")
}

// TestDirectives drives the meta-analyzer directly: its findings sit
// on comment lines, where // want expectations cannot.
func TestDirectives(t *testing.T) {
	pkg, err := load.New().Dir(filepath.Join("testdata", "src", "dirdemo"), "dirdemo")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	pass := &analysis.Pass{
		Analyzer:  lint.Directives,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report: func(d analysis.Diagnostic) {
			got = append(got, fmt.Sprintf("%d: %s", pkg.Fset.Position(d.Pos).Line, d.Message))
		},
	}
	if _, err := lint.Directives.Run(pass); err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		"needs analyzer names and a justification",
		"//sollint:wire must name one version constant",
		"//sollint:wire must name one version constant",
		"//sollint:wire must name one version constant",
		`unknown analyzer "wallclock"`,
		`unknown analyzer "hotalloc"`,
	}
	if len(got) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(wantSubstrings), strings.Join(got, "\n"))
	}
	for i, sub := range wantSubstrings {
		if !strings.Contains(got[i], sub) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, got[i], sub)
		}
	}
}

// lockFromPackage collects a wirelock from a testdata package, the
// same way `sollint -wirelock -update` does, with hygiene findings
// discarded (the fixtures contain them deliberately).
func lockFromPackage(t *testing.T, dir, path string) *wirelock.File {
	t.Helper()
	pkg, err := load.New().Dir(filepath.Join("testdata", "src", dir), path)
	if err != nil {
		t.Fatal(err)
	}
	types := lint.CollectWireTypes(pkg.Fset, pkg.Files, pkg.Types, pkg.Info,
		func(token.Pos, string, ...any) {})
	return &wirelock.File{Schema: wirelock.Schema, Version: wirelock.FormatVersion, Types: types}
}

// TestWirestableHygiene pins every field-shape finding, the allow
// escape, the unknown-guard diagnostic, and the not-recorded
// diagnostic. The installed lock is collected from the fixture itself
// (so drift stays silent), minus the Unlocked entry.
func TestWirestableHygiene(t *testing.T) {
	lock := lockFromPackage(t, "wiredemo", "wiredemo")
	kept := lock.Types[:0]
	for _, wt := range lock.Types {
		if wt.Name != "wiredemo.Unlocked" {
			kept = append(kept, wt)
		}
	}
	lock.Types = kept
	restore := lint.SetWirelock(lock)
	defer restore()
	analysistest.Run(t, "testdata", lint.Wirestable, "wiredemo")
}

// TestWirestableDrift locks a mutated past shape of each wiredrift
// type, so the analyzer sees exactly one un-bumped drift per type —
// and the diagnostics must name the drifted field and the guard
// constant to bump. Bumped's entry also gets an older guard value,
// proving a version bump silences the analyzer.
func TestWirestableDrift(t *testing.T) {
	lock := lockFromPackage(t, "wiredrift", "wiredrift")
	for i := range lock.Types {
		wt := &lock.Types[i]
		switch wt.Name {
		case "wiredrift.Added":
			wt.Fields = wt.Fields[:1]
		case "wiredrift.Renamed":
			wt.Fields[0].JSON = "a"
		case "wiredrift.Retyped":
			wt.Fields[0].Type = "int"
		case "wiredrift.Removed":
			wt.Fields = append(wt.Fields, wirelock.Field{Name: "Gone", JSON: "gone", Type: "int"})
		case "wiredrift.Reordered":
			wt.Fields[0], wt.Fields[1] = wt.Fields[1], wt.Fields[0]
		case "wiredrift.Bumped":
			wt.Fields = wt.Fields[:1]
			wt.GuardValue--
		}
	}
	restore := lint.SetWirelock(lock)
	defer restore()
	analysistest.Run(t, "testdata", lint.Wirestable, "wiredrift")
}

// TestWirelockDeterminism regenerates the same package's lock twice
// and byte-compares — the stability `sollint -wirelock` (and CI's
// wirelock check) relies on — then round-trips through Parse.
func TestWirelockDeterminism(t *testing.T) {
	a, err := lockFromPackage(t, "wiredemo", "wiredemo").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := lockFromPackage(t, "wiredemo", "wiredemo").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two collections of the same package marshal differently:\n%s\n---\n%s", a, b)
	}
	parsed, err := wirelock.Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := parsed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("Parse∘Marshal is not the identity:\n%s\n---\n%s", a, c)
	}
}

// TestEncodeJSON pins the -json output shape byte for byte: two-space
// indent, no HTML escaping, nil renders as an empty array.
func TestEncodeJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.EncodeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Fatalf("empty findings = %q, want %q", got, "[]\n")
	}
	buf.Reset()
	err := lint.EncodeJSON(&buf, []lint.JSONFinding{
		{File: "a/a.go", Line: 3, Col: 7, Analyzer: "walltime", Message: "time.Now reads the wall clock"},
		{File: "b/b.go", Line: 12, Col: 2, Analyzer: "wirestable", Message: `duplicate wire name "x" <&>`},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "file": "a/a.go",
    "line": 3,
    "col": 7,
    "analyzer": "walltime",
    "message": "time.Now reads the wall clock"
  },
  {
    "file": "b/b.go",
    "line": 12,
    "col": 2,
    "analyzer": "wirestable",
    "message": "duplicate wire name \"x\" <&>"
  }
]
`
	if got := buf.String(); got != want {
		t.Fatalf("EncodeJSON output:\n%s\nwant:\n%s", got, want)
	}
}
