// Package hotpathalloc enforces allocation-freedom on functions annotated
//
//	//pbox:hotpath
//
// in their doc comment. The manager's Update path is specified (DESIGN.md,
// BenchmarkUpdateHotPathAllocs) to run with zero heap allocations; this
// pass makes the property a compile-time contract instead of a
// benchmark-time regression. It flags, inside annotated functions:
//
//   - make/new calls and map, slice, and function literals
//   - &CompositeLit (escaping composite allocation; plain value literals
//     such as Record{...} stay on the stack and are allowed)
//   - append calls (may grow the backing array)
//   - fmt.* calls (allocate for boxing and formatting)
//   - non-constant string concatenation and string↔[]byte conversions
//   - interface boxing: passing, assigning, or returning a concrete
//     non-pointer value where an interface is expected
//
// The check is static and conservative in the other direction from the
// benchmark: it cannot see escape analysis, so a flagged construct might in
// fact stay on the stack — suppress with //pboxlint:ignore hotpathalloc
// <reason> when the benchmark proves it out.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"pbox/internal/lint/analysis"
	"pbox/internal/lint/program"
)

// Marker is the doc-comment annotation that opts a function into the check.
const Marker = "//pbox:hotpath"

// Analyzer is the hotpathalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "functions annotated //pbox:hotpath must be statically allocation-free",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !annotated(fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

// annotated reports whether the function's doc comment carries the marker.
func annotated(fd *ast.FuncDecl) bool { return program.Marked(fd, Marker) }

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "%s is //pbox:hotpath but allocates: function literal (closure allocation)", name)
			return false // contents are off the hot path once flagged
		case *ast.CompositeLit:
			switch pass.TypesInfo.Types[x].Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(x.Pos(), "%s is //pbox:hotpath but allocates: map literal", name)
			case *types.Slice:
				pass.Reportf(x.Pos(), "%s is //pbox:hotpath but allocates: slice literal", name)
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := x.X.(*ast.CompositeLit); ok {
					pass.Reportf(cl.Pos(), "%s is //pbox:hotpath but allocates: &composite literal escapes to the heap", name)
				}
			}
		case *ast.CallExpr:
			checkCall(pass, name, x)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isNonConstantString(pass, x) {
				pass.Reportf(x.Pos(), "%s is //pbox:hotpath but allocates: non-constant string concatenation", name)
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i < len(x.Rhs) {
					checkBoxing(pass, name, x.Rhs[i], pass.TypesInfo.Types[lhs].Type)
				}
			}
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, name, fd, x)
		}
		return true
	})
}

// checkCall flags allocating builtins, fmt calls, string conversions, and
// interface boxing at argument positions.
func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "%s is //pbox:hotpath but allocates: make", name)
				return
			case "new":
				pass.Reportf(call.Pos(), "%s is //pbox:hotpath but allocates: new", name)
				return
			case "append":
				pass.Reportf(call.Pos(), "%s is //pbox:hotpath but allocates: append may grow the backing array", name)
				return
			}
		}
	}
	// Conversions: string([]byte), []byte(string), and boxing-free others.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to, from := tv.Type, pass.TypesInfo.Types[call.Args[0]].Type
			if from != nil && isStringByteConv(to, from) {
				pass.Reportf(call.Pos(), "%s is //pbox:hotpath but allocates: string/[]byte conversion copies", name)
			}
		}
		return
	}
	// fmt.* calls.
	if fn := program.FuncObj(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "%s is //pbox:hotpath but allocates: fmt.%s formats and boxes", name, fn.Name())
		return
	}
	// Interface boxing at parameter positions.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		checkBoxing(pass, name, arg, pt)
	}
}

// callSignature resolves the signature of a (non-conversion, non-builtin)
// call, or nil.
func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// checkBoxing flags a concrete non-pointer value converted to an interface.
func checkBoxing(pass *analysis.Pass, name string, expr ast.Expr, to types.Type) {
	if to == nil {
		return
	}
	iface, ok := to.Underlying().(*types.Interface)
	if !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil {
		// Constants box into read-only statics, no runtime allocation.
		return
	}
	from := tv.Type
	if types.IsInterface(from) {
		return // interface-to-interface, no box
	}
	if isUntypedNil(from) {
		return
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped, stored directly in the iface word
	}
	_ = iface
	pass.Reportf(expr.Pos(), "%s is //pbox:hotpath but allocates: %s value boxed into interface", name, from)
}

// checkReturnBoxing flags concrete values returned as interface results.
func checkReturnBoxing(pass *analysis.Pass, name string, fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if results.Len() != len(ret.Results) {
		return
	}
	for i, e := range ret.Results {
		checkBoxing(pass, name, e, results.At(i).Type())
	}
}

func isNonConstantString(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return false
	}
	return tv.Value == nil // constant concatenation folds at compile time
}

func isStringByteConv(to, from types.Type) bool {
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
