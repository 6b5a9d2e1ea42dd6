// Mutation summaries: for every program function, the set of parameters
// (receiver included) through which it may store. This is the bottom-up
// dataflow behind the snapshot pass's write rule — "is it safe to hand this
// published pointer to that function?" is answered by the callee's summary
// rather than by re-walking its body at every call site.
//
// The summary is deliberately one-sided: it may miss writes (calls through
// interfaces or function values, writes through aliases that escape into
// globals or heap structures, external callees like sort.Slice) but it never
// invents one — a set bit always corresponds to a syntactic store path. The
// suite's philosophy (DESIGN.md §9) is no false positives on the real tree;
// false negatives are the price.
package program

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ParamMask is a bitset over a function's parameters: bit 0 is the receiver
// when the function has one, followed by the positional parameters.
// Functions with more than 64 parameters saturate (not a concern here).
type ParamMask uint64

// Has reports whether parameter i is in the mask.
func (m ParamMask) Has(i int) bool {
	if i < 0 || i >= 64 {
		return false
	}
	return m&(1<<uint(i)) != 0
}

func (m *ParamMask) set(i int) {
	if i >= 0 && i < 64 {
		*m |= 1 << uint(i)
	}
}

// MutationSummaries computes (once per program, cached) the parameter
// mutation mask of every function: parameter i is set when the function may
// write through it — a store whose access path roots at the parameter and
// crosses at least one selector/index/deref, a builtin copy into it, or a
// call passing it (or a local alias of it) into a callee position whose own
// summary bit is set. Computed bottom-up over the call-graph SCCs with a
// fixpoint inside each component, so mutual recursion converges.
func (p *Program) MutationSummaries() map[*Func]ParamMask {
	return p.Cache("program.mutation", func() any {
		sums := make(map[*Func]ParamMask, len(p.order))
		for _, scc := range p.sccs {
			for changed := true; changed; {
				changed = false
				for _, fn := range scc {
					m := p.mutationOf(fn, sums)
					if m != sums[fn] {
						sums[fn] = m
						changed = true
					}
				}
			}
		}
		return sums
	}).(map[*Func]ParamMask)
}

// ParamObjects returns the receiver (if any) followed by the declared
// parameters of fn, aligned with ParamMask bit positions.
func ParamObjects(fn *Func) []*types.Var {
	sig := fn.Obj.Type().(*types.Signature)
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// ReferenceLike reports whether writing through a value of type t can be
// observed by the caller: pointers, slices, and maps share memory across a
// call boundary. (Channels and interfaces are excluded — element sends are
// not field stores, and interface mutation resolves dynamically.)
func ReferenceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// mutationOf computes fn's mask given the current summaries of everything
// else.
func (p *Program) mutationOf(fn *Func, sums map[*Func]ParamMask) ParamMask {
	info := fn.Pkg.Info
	// idx maps each reference-like parameter, and each local that aliases
	// (reaches into) one's pointee — q := p, q := p.field — to the
	// parameter's position: writing through an alias is writing through the
	// parameter. Local fixpoint: aliases of aliases converge in a couple of
	// rounds.
	idx := make(map[*types.Var]int)
	for i, v := range ParamObjects(fn) {
		if ReferenceLike(v.Type()) {
			idx[v] = i
		}
	}
	if len(idx) == 0 {
		return 0
	}
	// param resolves a path to the parameter it starts at, and reports
	// whether the path reaches through it rather than naming it.
	param := func(e ast.Expr) (i int, peeled, ok bool) {
		id, peeled := RootIdent(e)
		if id == nil {
			return 0, false, false
		}
		i, ok = idx[VarOf(info, id)]
		return i, peeled, ok
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v := VarOf(info, id)
				if _, already := idx[v]; v == nil || already || !ReferenceLike(v.Type()) || !ReferenceLike(info.Types[as.Rhs[i]].Type) {
					continue
				}
				if pi, _, ok := param(as.Rhs[i]); ok {
					idx[v] = pi
					changed = true
				}
			}
			return true
		})
	}

	var mask ParamMask
	markWrite := func(lhs ast.Expr) {
		// `p = x` rebinds the local copy of the parameter — the caller never
		// sees it; only peeled paths (p.f = x, p[i] = x, *p = x) store
		// through shared memory. Aliases follow the same rule.
		if pi, peeled, ok := param(lhs); ok && peeled {
			mask.set(pi)
		}
	}

	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(x.X)
		case *ast.UnaryExpr:
			// &p.f escaping is not itself a write; covered as false negative.
		case *ast.CallExpr:
			// builtin copy(dst, src) writes through dst.
			if IsBuiltin(info, x.Fun, "copy") {
				if len(x.Args) >= 1 {
					if pi, _, ok := param(x.Args[0]); ok {
						mask.set(pi)
					}
				}
				return true
			}
			callee := p.Callee(info, x)
			if callee == nil {
				return true
			}
			csum := sums[callee]
			if csum == 0 {
				return true
			}
			for ci, argExpr := range CallArgExprs(info, x, callee) {
				if argExpr == nil || !csum.Has(ci) {
					continue
				}
				if pi, _, ok := param(argExpr); ok && ReferenceLike(info.Types[argExpr].Type) {
					mask.set(pi)
				}
			}
		}
		return true
	})
	return mask
}

// CallArgExprs aligns a call's argument expressions with the callee's
// ParamMask bit positions: index 0 is the receiver expression for method
// calls (nil when the callee has a receiver but the call shape hides it),
// then the positional arguments, with variadic overflow folded onto the
// last parameter.
func CallArgExprs(info *types.Info, call *ast.CallExpr, callee *Func) []ast.Expr {
	sig := callee.Obj.Type().(*types.Signature)
	nParams := sig.Params().Len()
	hasRecv := sig.Recv() != nil
	args := call.Args
	out := make([]ast.Expr, 0, nParams+1)
	if hasRecv {
		var recv ast.Expr
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, isSel := info.Selections[sel]; isSel {
				switch s.Kind() {
				case types.MethodVal:
					// x.M(...) — the receiver is the selector base.
					recv = sel.X
				case types.MethodExpr:
					// T.M(recv, ...) — the receiver is the first argument.
					if len(args) > 0 {
						recv, args = args[0], args[1:]
					}
				}
			}
		}
		out = append(out, recv)
	}
	for i := 0; i < nParams; i++ {
		out = append(out, nil)
	}
	base := 0
	if hasRecv {
		base = 1
	}
	for ai, a := range args {
		pi := ai
		if pi >= nParams {
			pi = nParams - 1 // variadic overflow
		}
		if pi < 0 {
			break
		}
		if out[base+pi] == nil {
			out[base+pi] = a
		}
	}
	return out
}
