// Package lint is sollint: a suite of static analyzers that enforce
// the repository's two structural invariants at build time instead of
// at test time —
//
//   - determinism: byte-identical reports across runs, worker widths,
//     and shard counts. A single wall-clock read, global math/rand
//     draw, or order-observable map iteration silently breaks that
//     contract in ways the determinism tests only catch for the
//     scenarios they happen to cover.
//   - zero-allocation hot paths: the per-event clock engine, the
//     per-epoch health polls, and the safeguard windows are kept off
//     the heap deliberately (see the PR 5 entry of CHANGES.md for what
//     GC pressure costs at 10k nodes); a stray fmt call or captured
//     closure undoes them quietly.
//
// Since PR 9 two more structural contracts are machine-checked:
//
//   - wire stability: the versioned JSON forms (campaign manifest,
//     fleet report, sol-metrics envelope, journal lines) may only
//     change shape alongside a bump of their version constant. The
//     wirestable analyzer checks field hygiene and compares each
//     registered struct against the checked-in field-fingerprint lock
//     (internal/lint/wirelock).
//   - shard isolation: state owned by one shard is touched only inside
//     that shard's span or at an alignment barrier — the mutex-free
//     contract the conductor, the lock-free profiler accumulators, and
//     the per-shard cohort buffers rely on. The shardspan analyzer
//     enforces it for annotated fields and types.
//
// Seven analyzers implement this: walltime, seedrand, maporder,
// hotalloc, clockhygiene, wirestable, and shardspan, plus a small
// meta-analyzer (sollintdir) that validates the //sollint: control
// comments themselves. Each is written against the internal/lint/
// analysis mirror of the golang.org/x/tools/go/analysis API, so they
// port to the real framework by swapping one import.
//
// # Control comments
//
//	//sollint:hotpath
//
// marks the next function declaration as a hot path: hotalloc flags
// every construct in its body that defeats escape analysis or
// allocates per call.
//
//	//sollint:wire <VersionConst>
//
// registers the next struct type declaration as a wire type guarded by
// the named version constant (declared in the same package): wirestable
// audits its fields and pins its fingerprint in wirelock.json.
//
//	//sollint:shardlocal
//
// marks the next struct type (all of its fields) or the next struct
// field as shard-owned state for the shardspan analyzer.
//
//	//sollint:alignspan
//
// marks the next function declaration as running in a sanctioned
// shard-state context — on a shard's own goroutine inside a span, or
// with the fleet aligned (quiescent) at a barrier — so it and everything
// it calls may touch shard-local state.
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
		Hotalloc,
		Clockhygiene,
		Wirestable,
		Shardspan,
		Directives,
	}
}

// Scope configures which packages each analyzer applies to. The
// defaults describe this module; tests override them via Set.
type Scope struct {
	// SimPrefixes are the import-path prefixes of simulation packages:
	// walltime and seedrand apply to packages matching any of them.
	SimPrefixes []string
	// Exempt lists exact import paths excluded from walltime and
	// seedrand even when a prefix matches: the clock package is the
	// sanctioned wall-time boundary for simulated time, obs is the
	// sanctioned boundary for diagnostic (profiling) wall time, and
	// the lint suite itself is tooling, not simulation.
	Exempt []string
	// HygienePaths lists the exact import paths where the int64-ns
	// convention applies: clockhygiene flags time.Time struct fields
	// and unexported-function parameters there.
	HygienePaths []string
	// SpanAPIs lists the qualified struct types ("pkg/path.Name") whose
	// function-typed fields are per-shard span hooks: a function
	// assigned to one of them (shard.Span's Stepped/OnEpoch,
	// shard.Config's Advance) runs on a shard's goroutine inside a
	// span, so shardspan treats it — and everything reachable from it —
	// as a sanctioned shard-state context.
	SpanAPIs []string
}

// DefaultScope is the module's scope; the package-level analyzers
// consult CurrentScope at run time.
var DefaultScope = Scope{
	SimPrefixes:  []string{"sol/internal/"},
	Exempt:       []string{"sol/internal/clock", "sol/internal/lint", "sol/internal/obs"},
	HygienePaths: []string{"sol/internal/clock"},
	SpanAPIs:     []string{"sol/internal/shard.Span", "sol/internal/shard.Config"},
}

// CurrentScope is the scope in effect; see SetScope.
var CurrentScope = DefaultScope

// SetScope installs s and returns a restore function, for tests.
func SetScope(s Scope) (restore func()) {
	old := CurrentScope
	CurrentScope = s
	return func() { CurrentScope = old }
}

// basePath strips test-variant decorations so a test unit inherits
// the scope of the package it tests: the loader's own "_test" suffix
// and the go vet forms "pkg.test" and "pkg [pkg.test]".
func basePath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, "_test")
	return strings.TrimSuffix(path, ".test")
}

// inSimScope reports whether the package at path is a simulation
// package (prefix-matched, not exempt).
func inSimScope(path string) bool {
	p := basePath(path)
	for _, ex := range CurrentScope.Exempt {
		if p == ex || strings.HasPrefix(p, ex+"/") {
			return false
		}
	}
	for _, prefix := range CurrentScope.SimPrefixes {
		if strings.HasPrefix(p, prefix) {
			return true
		}
	}
	return false
}

// inHygieneScope reports whether the package at path follows the
// int64-ns convention.
func inHygieneScope(path string) bool {
	p := basePath(path)
	for _, hp := range CurrentScope.HygienePaths {
		if p == hp {
			return true
		}
	}
	return false
}

// --- //sollint: control comments ---

const (
	allowPrefix      = "//sollint:allow"
	hotpathMarker    = "//sollint:hotpath"
	wireMarker       = "//sollint:wire"
	shardlocalMarker = "//sollint:shardlocal"
	alignspanMarker  = "//sollint:alignspan"
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
	allows  []allowRange
	hotpath map[*ast.FuncDecl]bool
	// wire maps each //sollint:wire-registered struct type to the name
	// of the version constant guarding its wire form.
	wire map[*ast.TypeSpec]string
	// shardlocalTypes and shardlocalFields are the //sollint:shardlocal
	// marks: a marked type covers every field of the struct.
	shardlocalTypes  map[*ast.TypeSpec]bool
	shardlocalFields map[*ast.Field]bool
	// alignspan marks functions sanctioned to touch shard-local state.
	alignspan map[*ast.FuncDecl]bool
	// badAllow are allow comments with no justification; badHotpath
	// are hotpath markers not followed by a function declaration; the
	// remaining bad* slices are the new directives' malformed uses.
	// The sollintdir meta-analyzer reports them.
	badAllow      []token.Pos
	badHotpath    []token.Pos
	badWire       []token.Pos
	badShardlocal []token.Pos
	badAlignspan  []token.Pos
}

// parseDirectives scans the pass's files for //sollint: comments and
// resolves each to its target node.
func parseDirectives(pass *analysis.Pass) *directives {
	d := &directives{
		hotpath:          make(map[*ast.FuncDecl]bool),
		wire:             make(map[*ast.TypeSpec]string),
		shardlocalTypes:  make(map[*ast.TypeSpec]bool),
		shardlocalFields: make(map[*ast.Field]bool),
		alignspan:        make(map[*ast.FuncDecl]bool),
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				switch {
				case hasMarker(text, allowPrefix):
					d.parseAllow(pass, f, c)
				case hasMarker(text, hotpathMarker):
					d.parseHotpath(pass, f, c)
				case hasMarker(text, wireMarker):
					d.parseWire(pass, f, c)
				case hasMarker(text, shardlocalMarker):
					d.parseShardlocal(pass, f, c)
				case hasMarker(text, alignspanMarker):
					d.parseAlignspan(pass, f, c)
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

func (d *directives) parseHotpath(pass *analysis.Pass, f *ast.File, c *ast.Comment) {
	node := targetNode(pass, f, c)
	if fd, ok := node.(*ast.FuncDecl); ok {
		d.hotpath[fd] = true
		return
	}
	d.badHotpath = append(d.badHotpath, c.Pos())
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

func (d *directives) parseShardlocal(pass *analysis.Pass, f *ast.File, c *ast.Comment) {
	node := targetNode(pass, f, c)
	if fld, ok := node.(*ast.Field); ok {
		d.shardlocalFields[fld] = true
		return
	}
	if ts := structSpec(node); ts != nil {
		d.shardlocalTypes[ts] = true
		return
	}
	d.badShardlocal = append(d.badShardlocal, c.Pos())
}

func (d *directives) parseAlignspan(pass *analysis.Pass, f *ast.File, c *ast.Comment) {
	if fd, ok := targetNode(pass, f, c).(*ast.FuncDecl); ok {
		d.alignspan[fd] = true
		return
	}
	d.badAlignspan = append(d.badAlignspan, c.Pos())
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
	Doc:  "validate //sollint: control comments (allow, hotpath, wire, shardlocal, alignspan)",
	Run:  runDirectives,
}

// knownAnalyzers mirrors Suite; runDirectives cannot call Suite
// without an initialization cycle through the Directives variable.
var knownAnalyzers = []string{"walltime", "seedrand", "maporder", "hotalloc", "clockhygiene", "wirestable", "shardspan", "sollintdir"}

func runDirectives(pass *analysis.Pass) (any, error) {
	d := parseDirectives(pass)
	known := make(map[string]bool)
	for _, n := range knownAnalyzers {
		known[n] = true
	}
	for _, pos := range d.badAllow {
		pass.Reportf(pos, "//sollint:allow needs analyzer names and a justification: //sollint:allow <name>[,<name>] <why>")
	}
	for _, pos := range d.badHotpath {
		pass.Reportf(pos, "//sollint:hotpath must precede a function declaration")
	}
	for _, pos := range d.badWire {
		pass.Reportf(pos, "//sollint:wire must name one version constant and precede a struct type declaration: //sollint:wire <VersionConst>")
	}
	for _, pos := range d.badShardlocal {
		pass.Reportf(pos, "//sollint:shardlocal must precede a struct type or field declaration")
	}
	for _, pos := range d.badAlignspan {
		pass.Reportf(pos, "//sollint:alignspan must precede a function declaration")
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
