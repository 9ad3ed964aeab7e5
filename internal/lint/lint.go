// Package lint is sollint: a suite of static analyzers for the
// structural contracts of this repository that no test measures
// directly —
//
//   - determinism: byte-identical reports across runs, worker widths,
//     and shard counts. A single wall-clock read, global math/rand
//     draw, or order-observable map iteration silently breaks that
//     contract in ways the determinism tests only catch for the
//     scenarios they happen to cover.
//   - wire stability: the versioned JSON forms (campaign manifest,
//     fleet report, sol-metrics envelope, journal lines) may only
//     change shape alongside a bump of their version constant. The
//     wirestable analyzer checks field hygiene and compares each
//     registered struct against the checked-in field-fingerprint lock
//     (internal/lint/wirelock).
//
// Four analyzers implement this: walltime, seedrand, maporder, and
// wirestable, plus a small meta-analyzer (sollintdir) that validates
// the //sollint: control comments themselves. Each is written against
// the internal/lint/analysis mirror of the golang.org/x/tools/go/analysis
// API, so they port to the real framework by swapping one import.
//
// The repository's other two invariants are held by tests that observe
// the real behaviour rather than by analyzers that infer it: the
// zero-allocation hot paths by the testing.AllocsPerRun guards (the
// "Allocs" tests), and shard isolation by go test -race on real-clock,
// multi-worker sharded runs.
//
// # Control comments
//
//	//sollint:wire <VersionConst>
//
// registers the next struct type declaration as a wire type guarded by
// the named version constant (declared in the same package): wirestable
// audits its fields and pins its fingerprint in wirelock.json.
//
//	//sollint:allow <analyzer>[,<analyzer>...] <justification>
//
// suppresses the named analyzers over the source range of the comment:
// the statement or declaration starting on the same line (for trailing
// comments) or the one immediately following (for standalone
// comments), including its whole body. The justification is mandatory;
// an allow without one is itself a finding.
package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"sol/internal/lint/analysis"
)

// Suite returns the sollint analyzers in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Walltime,
		Seedrand,
		Maporder,
		Wirestable,
		Directives,
	}
}

// simPrefix is the import-path prefix of simulation packages:
// walltime and seedrand apply to every package under it except the
// exempt ones — the clock package is the sanctioned wall-time boundary
// for simulated time, obs is the sanctioned boundary for diagnostic
// (profiling) wall time, and the lint suite itself is tooling, not
// simulation.
const simPrefix = "sol/internal/"

var simExempt = []string{"sol/internal/clock", "sol/internal/lint", "sol/internal/obs"}

// basePath strips the loader's "_test" suffix so an external test
// package inherits the scope of the package it tests.
func basePath(path string) string { return strings.TrimSuffix(path, "_test") }

// inSimScope reports whether the package at path is a simulation
// package (prefix-matched, not exempt).
func inSimScope(path string) bool {
	p := basePath(path)
	for _, ex := range simExempt {
		if p == ex || strings.HasPrefix(p, ex+"/") {
			return false
		}
	}
	return strings.HasPrefix(p, simPrefix)
}

// --- //sollint: control comments ---

const (
	allowPrefix = "//sollint:allow"
	wireMarker  = "//sollint:wire"
)

// hasMarker reports whether text is the marker itself or the marker
// followed by arguments — not merely a prefix, so //sollint:wire does
// not swallow a longer directive name sharing its spelling.
func hasMarker(text, marker string) bool {
	if !strings.HasPrefix(text, marker) {
		return false
	}
	rest := text[len(marker):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// allowRange is one //sollint:allow comment resolved to the source
// interval it suppresses.
type allowRange struct {
	names         map[string]bool
	lo, hi        token.Pos
	pos           token.Pos // the comment, for directive validation
	justification string
}

// directives holds a package's parsed //sollint: comments.
type directives struct {
	allows []allowRange
	// wire maps each //sollint:wire-registered struct type to the name
	// of the version constant guarding its wire form.
	wire map[*ast.TypeSpec]string
	// badAllow are allow comments with no justification and badWire
	// are malformed wire registrations; the sollintdir meta-analyzer
	// reports them.
	badAllow []token.Pos
	badWire  []token.Pos
}

// parseDirectives scans the pass's files for //sollint: comments and
// resolves each to its target node.
func parseDirectives(pass *analysis.Pass) *directives {
	d := &directives{wire: make(map[*ast.TypeSpec]string)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				switch {
				case hasMarker(text, allowPrefix):
					d.parseAllow(pass, f, c)
				case hasMarker(text, wireMarker):
					d.parseWire(pass, f, c)
				}
			}
		}
	}
	return d
}

func (d *directives) parseAllow(pass *analysis.Pass, f *ast.File, c *ast.Comment) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), allowPrefix))
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		// Either no analyzer names or no justification.
		d.badAllow = append(d.badAllow, c.Pos())
		if len(fields) == 0 {
			return
		}
	}
	names := make(map[string]bool)
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names[n] = true
		}
	}
	ar := allowRange{names: names, pos: c.Pos()}
	if len(fields) >= 2 {
		ar.justification = strings.Join(fields[1:], " ")
	}
	if node := targetNode(pass, f, c); node != nil {
		ar.lo, ar.hi = node.Pos(), node.End()
	} else {
		// No following node: cover the comment's own line.
		ar.lo, ar.hi = c.Pos(), c.End()
	}
	d.allows = append(d.allows, ar)
}

// structSpec unwraps a directive's target node to the struct type
// declaration it names: a TypeSpec directly (inside a type block) or a
// single-spec GenDecl (the doc-comment position of `type X struct`).
func structSpec(node ast.Node) *ast.TypeSpec {
	ts, ok := node.(*ast.TypeSpec)
	if !ok {
		gd, isGen := node.(*ast.GenDecl)
		if !isGen || gd.Tok != token.TYPE || len(gd.Specs) != 1 {
			return nil
		}
		ts, ok = gd.Specs[0].(*ast.TypeSpec)
		if !ok {
			return nil
		}
	}
	if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
		return nil
	}
	return ts
}

func (d *directives) parseWire(pass *analysis.Pass, f *ast.File, c *ast.Comment) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), wireMarker))
	ts := structSpec(targetNode(pass, f, c))
	if len(strings.Fields(rest)) != 1 || ts == nil {
		d.badWire = append(d.badWire, c.Pos())
		return
	}
	d.wire[ts] = rest
}

// targetNode resolves a control comment to the declaration or
// statement it governs: the outermost node starting on the comment's
// line (trailing comment) or, failing that, the outermost node
// starting on the nearest following line (standalone comment, doc
// comment position).
func targetNode(pass *analysis.Pass, f *ast.File, c *ast.Comment) ast.Node {
	cLine := pass.Fset.Position(c.Pos()).Line
	var sameLine, next ast.Node
	nextLine := int(^uint(0) >> 1)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || n == f {
			return true
		}
		if _, isComment := n.(*ast.CommentGroup); isComment {
			return false
		}
		line := pass.Fset.Position(n.Pos()).Line
		switch {
		case line == cLine && n.Pos() < c.Pos() && sameLine == nil:
			sameLine = n
		case line > cLine && line < nextLine:
			next, nextLine = n, line
		}
		// Once inside a node starting at the target line we keep the
		// outermost, so don't descend past a recorded match.
		return n != sameLine && n != next
	})
	if sameLine != nil {
		return sameLine
	}
	return next
}

// allowed reports whether an analyzer's diagnostic at pos is
// suppressed by an //sollint:allow comment.
func (d *directives) allowed(name string, pos token.Pos) bool {
	for _, ar := range d.allows {
		if ar.names[name] && pos >= ar.lo && pos < ar.hi {
			return true
		}
	}
	return false
}

// reporter returns a Reportf-like function that drops diagnostics
// suppressed for the pass's analyzer.
func (d *directives) reporter(pass *analysis.Pass) func(pos token.Pos, format string, args ...any) {
	return func(pos token.Pos, format string, args ...any) {
		if d.allowed(pass.Analyzer.Name, pos) {
			return
		}
		pass.Reportf(pos, format, args...)
	}
}

// Directives is the meta-analyzer: it validates the //sollint:
// control comments themselves, so a misspelled analyzer name or a
// justification-free allow cannot silently disable a check.
var Directives = &analysis.Analyzer{
	Name: "sollintdir",
	Doc:  "validate //sollint: control comments (allow, wire)",
	Run:  runDirectives,
}

// knownAnalyzers mirrors Suite; runDirectives cannot call Suite
// without an initialization cycle through the Directives variable.
var knownAnalyzers = []string{"walltime", "seedrand", "maporder", "wirestable", "sollintdir"}

func runDirectives(pass *analysis.Pass) (any, error) {
	d := parseDirectives(pass)
	known := make(map[string]bool)
	for _, n := range knownAnalyzers {
		known[n] = true
	}
	for _, pos := range d.badAllow {
		pass.Reportf(pos, "//sollint:allow needs analyzer names and a justification: //sollint:allow <name>[,<name>] <why>")
	}
	for _, pos := range d.badWire {
		pass.Reportf(pos, "//sollint:wire must name one version constant and precede a struct type declaration: //sollint:wire <VersionConst>")
	}
	for _, ar := range d.allows {
		names := make([]string, 0, len(ar.names))
		for n := range ar.names {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if !known[n] {
				pass.Reportf(ar.pos, "//sollint:allow names unknown analyzer %q", n)
			}
		}
	}
	return nil, nil
}
