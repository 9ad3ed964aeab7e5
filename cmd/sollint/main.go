// Command sollint runs the sol static-analysis suite (see
// internal/lint) over Go packages:
//
//	go run ./cmd/sollint ./...
//
// loads the matched packages (tests included, disable with
// -tests=false), applies every analyzer, prints findings as
// file:line:col: [analyzer] message (or as a JSON array with -json),
// and exits 1 if there were any.
//
// It also maintains the wire-format lock the wirestable analyzer
// compares against:
//
//	go run ./cmd/sollint -wirelock           # verify the lock matches the tree
//	go run ./cmd/sollint -wirelock -update   # regenerate it
//
// The check form is a CI gate: a stale or hand-edited
// internal/lint/wirelock/wirelock.json fails the build.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/token"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"sol/internal/lint"
	"sol/internal/lint/analysis"
	"sol/internal/lint/load"
	"sol/internal/lint/wirelock"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sollint: ")

	tests := flag.Bool("tests", true, "also lint _test.go files and external test packages")
	jsonOut := flag.Bool("json", false, "print findings as a JSON array")
	lockMode := flag.Bool("wirelock", false, "check internal/lint/wirelock/wirelock.json against the tree instead of linting")
	lockUpdate := flag.Bool("update", false, "with -wirelock: rewrite the lock instead of comparing")
	flag.Parse()
	args := flag.Args()
	if *lockMode {
		os.Exit(wirelockMode(*lockUpdate))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(lintPatterns(args, *tests, *jsonOut))
}

// finding is one diagnostic resolved to a printable position.
type finding struct {
	pos      token.Position
	analyzer string
	msg      string
}

// runSuite applies every analyzer to one type-checked package.
func runSuite(pkg *load.Package) []finding {
	var out []finding
	for _, a := range lint.Suite() {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				out = append(out, finding{pos: pkg.Fset.Position(d.Pos), analyzer: a.Name, msg: d.Message})
			},
		}
		if _, err := a.Run(pass); err != nil {
			log.Fatalf("%s: %v", a.Name, err)
		}
	}
	return out
}

// sortFindings orders findings by position then analyzer, so output is
// stable however packages and analyzers interleave.
func sortFindings(fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.analyzer < b.analyzer
	})
}

// lintPatterns expands patterns, lints every match, and prints findings.
func lintPatterns(patterns []string, tests, jsonOut bool) int {
	l := load.New()
	l.Tests = tests
	pkgs, err := l.Patterns(patterns...)
	if err != nil {
		log.Fatal(err)
	}
	var all []finding
	for _, pkg := range pkgs {
		all = append(all, runSuite(pkg)...)
	}
	sortFindings(all)
	if jsonOut {
		js := make([]lint.JSONFinding, len(all))
		for i, f := range all {
			js[i] = lint.JSONFinding{File: f.pos.Filename, Line: f.pos.Line, Col: f.pos.Column, Analyzer: f.analyzer, Message: f.msg}
		}
		if err := lint.EncodeJSON(os.Stdout, js); err != nil {
			log.Fatal(err)
		}
	} else {
		for _, f := range all {
			fmt.Printf("%s: [%s] %s\n", f.pos, f.analyzer, f.msg)
		}
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}

// wirelockMode regenerates the wire-format lock from the module's
// source (tests excluded — test fixtures must not enter the lock) and
// either writes it (-update) or byte-compares it against the
// checked-in file.
func wirelockMode(update bool) int {
	l := load.New()
	l.Tests = false
	pkgs, err := l.Patterns("./...")
	if err != nil {
		log.Fatal(err)
	}
	problems := 0
	lock := &wirelock.File{}
	for _, pkg := range pkgs {
		fset := pkg.Fset
		entries := lint.CollectWireTypes(fset, pkg.Files, pkg.Types, pkg.Info, func(pos token.Pos, format string, args ...any) {
			problems++
			fmt.Fprintf(os.Stderr, "%s: [wirestable] %s\n", fset.Position(pos), fmt.Sprintf(format, args...))
		})
		lock.Types = append(lock.Types, entries...)
	}
	if problems > 0 {
		log.Printf("wirelock: %d wire-hygiene problem(s); fix them before locking", problems)
		return 1
	}
	data, err := lock.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	path := wirelockPath()
	if update {
		if err := os.WriteFile(path, data, 0o666); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sollint: wrote %s (%d wire types)\n", path, len(lock.Types))
		return 0
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		log.Printf("wirelock: %v — run `go run ./cmd/sollint -wirelock -update`", err)
		return 1
	}
	if !bytes.Equal(disk, data) {
		log.Printf("wirelock: %s is stale against the tree (a wire type changed, or the file was edited) — run `go run ./cmd/sollint -wirelock -update` and review the diff", path)
		return 1
	}
	fmt.Printf("sollint: wirelock up to date (%d wire types)\n", len(lock.Types))
	return 0
}

// wirelockPath locates the checked-in lock through the go command, so
// the check works from any working directory inside the module.
func wirelockPath() string {
	out, err := exec.Command("go", "list", "-f", "{{.Dir}}", "sol/internal/lint/wirelock").Output()
	if err != nil {
		log.Fatalf("locating wirelock package: %v", err)
	}
	return filepath.Join(strings.TrimSpace(string(out)), "wirelock.json")
}
