package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"sol/internal/lint/analysis"
)

// Hotalloc audits functions marked //sollint:hotpath for constructs
// that allocate per call or defeat escape analysis. The marked
// functions are the ones the benchmarks pin at 0 allocs/op — the
// per-event clock heap, the per-epoch health polls, the safeguard
// windows — and a single stray construct undoes that quietly until
// the next benchmark run. Five shapes are flagged:
//
//   - function literals that capture enclosing variables: the capture
//     forces the variables (and usually the closure) onto the heap;
//   - fmt.* calls: the ...any parameters box every argument;
//   - interface boxing: passing a concrete value where a parameter is
//     an interface type allocates unless inlining saves it;
//   - append to a slice declared in-function with no capacity: growth
//     reallocates per call. Appending to a caller-provided parameter
//     or a struct field is the reuse idiom and stays silent;
//   - the address of a function-local passed to a call the compiler
//     cannot see through — a func-typed value or an interface method:
//     the local moves to the heap where it is declared, on every call,
//     including the calls that never reach the dynamic one. A copy
//     declared inside the branch that makes the call
//     (`if f != nil { c := s; f(&c) }`) pays only when the branch runs
//     and stays silent, as does the address of a field.
var Hotalloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocating constructs in functions marked //sollint:hotpath",
	Run:  runHotalloc,
}

func runHotalloc(pass *analysis.Pass) (any, error) {
	d := parseDirectives(pass)
	report := d.reporter(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !d.hotpath[fd] || fd.Body == nil {
				continue
			}
			checkHotFunc(pass, fd, report)
		}
	}
	return nil, nil
}

func checkHotFunc(pass *analysis.Pass, fd *ast.FuncDecl, report func(pos token.Pos, format string, args ...any)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if name := capturedVar(pass, fd, n); name != "" {
				report(n.Pos(), "closure captures %s in hot path %s, forcing it onto the heap; hoist the closure or pass state explicitly, or annotate //sollint:allow hotalloc <why>",
					name, fd.Name.Name)
			}
			return false // captures inside nested literals charge to the outer one
		case *ast.CallExpr:
			if fn, path := pkgFunc(pass, n); fn != nil && path == "fmt" {
				report(n.Pos(), "fmt.%s in hot path %s boxes every argument; format outside the hot path, or annotate //sollint:allow hotalloc <why>",
					fn.Name(), fd.Name.Name)
				return true
			}
			checkBoxing(pass, fd, n, report)
			checkEscapingAddr(pass, fd, n, report)
		case *ast.AssignStmt:
			checkBareAppend(pass, fd, n, report)
		}
		return true
	})
}

// capturedVar returns the name of a variable the function literal
// captures from the enclosing function, or "".
func capturedVar(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing function (parameters
		// and receiver included) but outside the literal itself.
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			name = v.Name()
		}
		return true
	})
	return name
}

// checkBoxing flags concrete arguments passed to interface-typed
// parameters. Type-parameter "interfaces" are generic constraints, not
// boxing sites, and untyped nil carries no value to box.
func checkBoxing(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, report func(pos token.Pos, format string, args ...any)) {
	if call.Ellipsis.IsValid() {
		return // the slice was built elsewhere; nothing boxes here
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var ptype types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			ptype = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			ptype = params.At(i).Type()
		default:
			continue
		}
		if _, isTP := ptype.(*types.TypeParam); isTP {
			continue
		}
		if !types.IsInterface(ptype) {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil || types.IsInterface(at.Type) {
			continue
		}
		if b, ok := at.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "passing %s into an interface parameter boxes it in hot path %s; keep the hot path monomorphic, or annotate //sollint:allow hotalloc <why>",
			types.TypeString(at.Type, types.RelativeTo(pass.Pkg)), fd.Name.Name)
	}
}

// checkEscapingAddr flags `&x` arguments to dynamically dispatched
// calls where x is a local (or parameter) that every call of fd
// declares: escape analysis cannot follow the callee, so x is
// heap-allocated at its declaration whether or not the call happens.
func checkEscapingAddr(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, report func(pos token.Pos, format string, args ...any)) {
	if !dynamicCall(pass, call) {
		return
	}
	for _, arg := range call.Args {
		addr, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || addr.Op != token.AND {
			continue
		}
		id, ok := ast.Unparen(addr.X).(*ast.Ident)
		if !ok {
			continue // &x.f, &x[i], &T{}: not a bare local
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() || obj.Pos() < fd.Pos() || obj.Pos() >= fd.End() {
			continue // package-level: already static storage
		}
		if declaredInBranch(fd, obj) {
			continue // the allocation is paid only when the branch runs
		}
		report(addr.Pos(), "address of %s passed to a dynamically dispatched call moves it to the heap on every call of hot path %s; hand the callee a copy made inside the branch that calls it, or annotate //sollint:allow hotalloc <why>",
			obj.Name(), fd.Name.Name)
	}
}

// dynamicCall reports whether the call goes through a func-typed value
// (variable, parameter, field, element, call result) or an interface
// method — anything but a declared function or concrete method.
func dynamicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return false // conversion
	}
	if _, ok := tv.Type.Underlying().(*types.Signature); !ok {
		return false // builtin
	}
	fn, ok := calleeObj(pass, call).(*types.Func)
	if !ok {
		return true // a value of function type
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// declaredInBranch reports whether obj's declaration sits inside the
// body of an if, a switch or select case within fd — code that a call
// of fd may skip. An if statement's own init clause runs
// unconditionally and does not count.
func declaredInBranch(fd *ast.FuncDecl, obj *types.Var) bool {
	holds := func(n ast.Node) bool { return n != nil && n.Pos() <= obj.Pos() && obj.Pos() < n.End() }
	inBranch := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil || !holds(n) {
			return false
		}
		switch n := n.(type) {
		case *ast.CaseClause, *ast.CommClause:
			inBranch = true
		case *ast.IfStmt:
			if holds(n.Body) || (n.Else != nil && holds(n.Else)) {
				inBranch = true
			}
		}
		return !inBranch
	})
	return inBranch
}

// checkBareAppend flags appends whose destination is declared inside
// the function with no capacity — `var s []T`, `s := []T{}`, or
// `make([]T, 0)` — so every call regrows it. Parameters, fields, and
// preallocated locals are the reuse idiom and stay silent.
func checkBareAppend(pass *analysis.Pass, fd *ast.FuncDecl, as *ast.AssignStmt, report func(pos token.Pos, format string, args ...any)) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		root := rootIdent(as.Lhs[i])
		if root == nil {
			continue
		}
		obj, ok := pass.TypesInfo.Uses[root].(*types.Var)
		if !ok {
			obj, ok = pass.TypesInfo.Defs[root].(*types.Var)
			if !ok {
				continue
			}
		}
		if obj.IsField() || obj.Pos() < fd.Pos() || obj.Pos() >= fd.End() {
			continue // field or package-level: caller-owned storage
		}
		if isParam(fd, obj) {
			continue // reused caller buffer
		}
		if decl := localDeclRHS(pass, fd, obj); declIsBare(pass, decl) {
			report(call.Pos(), "append to %s grows an unpreallocated slice in hot path %s; size it up front or reuse a buffer, or annotate //sollint:allow hotalloc <why>",
				obj.Name(), fd.Name.Name)
		}
	}
}

// isParam reports whether obj is one of fd's parameters, results, or
// its receiver.
func isParam(fd *ast.FuncDecl, obj *types.Var) bool {
	inField := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		return obj.Pos() >= fl.Pos() && obj.Pos() < fl.End()
	}
	return inField(fd.Recv) || inField(fd.Type.Params) || inField(fd.Type.Results)
}

// localDeclRHS finds the expression obj is initialised with inside fd:
// the sentinel bareDecl for `var s []T` with no initialiser, nil when
// no simple declaration is found (range variable, say — left silent).
func localDeclRHS(pass *analysis.Pass, fd *ast.FuncDecl, obj *types.Var) ast.Expr {
	var rhs ast.Expr = bareDecl
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Defs[id] == obj {
					found = true
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else {
						rhs = n.Rhs[0] // multi-value call: caller-built
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.TypesInfo.Defs[name] == obj {
					found = true
					if i < len(n.Values) {
						rhs = n.Values[i]
					}
				}
			}
		}
		return true
	})
	if !found {
		return nil
	}
	return rhs
}

// bareDecl marks a declaration with no initialiser (`var s []T`).
var bareDecl ast.Expr = &ast.Ident{Name: "<zero>"}

// declIsBare reports whether the initialiser leaves the slice with no
// capacity: absent, an empty literal, or make with a constant-zero
// length and no larger capacity.
func declIsBare(pass *analysis.Pass, rhs ast.Expr) bool {
	switch rhs := ast.Unparen(rhs).(type) {
	case nil:
		return false // declared outside, or not a simple declaration
	case *ast.Ident:
		return rhs == bareDecl
	case *ast.CompositeLit:
		return len(rhs.Elts) == 0
	case *ast.CallExpr:
		id, ok := rhs.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return false
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			return false
		}
		// make([]T, n) or make([]T, n, c): bare only when every size
		// argument is the constant 0.
		for _, sz := range rhs.Args[1:] {
			tv, ok := pass.TypesInfo.Types[sz]
			if !ok || tv.Value == nil || tv.Value.String() != "0" {
				return false
			}
		}
		return len(rhs.Args) > 1
	}
	return false
}
