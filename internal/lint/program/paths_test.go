package program_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pbox/internal/lint/program"
)

// TestInterpret runs the path interpreter over small bodies in a fact
// language of two calls, on("x") and off("x"), and compares the facts at
// every exit: "return{...}" at a return, "end{...}" where control falls off
// the body.
func TestInterpret(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       []string
	}{
		{"if joins its arms",
			`if c { on("a") } else { on("b") }`, []string{"end{a,b}"}},
		{"a return leaves the join",
			`on("a"); if c { return }; off("a")`, []string{"return{a}", "end{}"}},
		{"break carries its state out of the loop",
			`for { on("a"); if c { break }; off("a") }`, []string{"end{a}"}},
		{"continue carries its state to the back edge",
			`for c { on("a"); if d { continue }; off("a") }`, []string{"end{a}"}},
		{"the second pass starts from the back edge",
			`for c { if d { return }; on("a") }`, []string{"return{}", "return{a}", "end{a}"}},
		{"a labeled break leaves the outer loop",
			`L: for { on("a"); select { case <-ch: break L; default: }; off("a") }`, []string{"end{a}"}},
		{"a labeled continue skips the inner loop's back edge",
			`L: for c { for { on("a"); continue L } }; off("b")`, []string{"end{a}"}},
		{"a for without condition or break ends the path",
			`on("a"); for { off("a") }`, nil},
		{"a switch without default joins its entry",
			`on("a"); switch { case c: off("a") }`, []string{"end{a}"}},
		{"a switch with default does not",
			`on("a"); switch { case c: off("a"); default: off("a") }`, []string{"end{}"}},
		{"a switch with default ends the path when every clause does",
			`switch { case c: return; default: return }; on("a")`, []string{"return{}", "return{}"}},
		{"fallthrough joins the next clause's entry",
			`switch { case c: on("a"); fallthrough; default: off("a") }`, []string{"end{}"}},
		{"an empty select ends the path",
			`on("a"); select {}`, nil},
		{"a comm clause's statement heads its body",
			`select { case v := <-on("a"): _ = v }`, []string{"end{a}"}},
		{"goto ends the path",
			`on("a"); goto L; L: off("a")`, nil},
		{"a go statement evaluates its arguments, not its call",
			`go off(on("a"))`, []string{"end{a}"}},
		{"function literals are not this body's",
			`f := func() { on("a") }; f()`, []string{"end{}"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := interpret(t, tc.body); !slices.Equal(got, tc.want) {
				t.Errorf("exits %q, want %q", got, tc.want)
			}
		})
	}
}

// TestInterpretEntry starts a body from a fact set of its own, which
// Interpret copies, never changes.
func TestInterpretEntry(t *testing.T) {
	entry := program.Facts[string]{"a": token.NoPos}
	if got, want := interpretFrom(t, `if c { off("a") }; on("b")`, entry), []string{"end{a,b}"}; !slices.Equal(got, want) {
		t.Errorf("exits %q, want %q", got, want)
	}
	if len(entry) != 1 {
		t.Errorf("entry changed to %v", entry)
	}
}

// TestEachBody counts a declared function's body and its nested literals.
func TestEachBody(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "x.go",
		"package x\nvar v = func() {}\nfunc f() { _ = func() func() { return func() {} } }\nfunc g()\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	program.EachBody([]*ast.File{f}, func(*ast.BlockStmt) { n++ })
	if n != 4 {
		t.Errorf("%d bodies, want 4", n)
	}
}

func interpret(t *testing.T, body string) []string {
	t.Helper()
	return interpretFrom(t, body, nil)
}

func interpretFrom(t *testing.T, body string, entry program.Facts[string]) []string {
	t.Helper()
	src := "package x\nfunc f(c, d bool, ch chan int) {\n" + body + "\n}\n"
	file, err := parser.ParseFile(token.NewFileSet(), "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exits []string
	program.Interpret(file.Decls[0].(*ast.FuncDecl).Body, program.Paths[string]{
		Entry: entry,
		Call: func(call *ast.CallExpr, facts program.Facts[string]) {
			id, _ := call.Fun.(*ast.Ident)
			if id == nil || len(call.Args) != 1 {
				return
			}
			fact, _ := strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
			switch id.Name {
			case "on":
				facts[fact] = call.Pos()
			case "off":
				delete(facts, fact)
			}
		},
		Exit: func(facts program.Facts[string], ret *ast.ReturnStmt) {
			var held []string
			for k := range facts {
				held = append(held, k)
			}
			slices.Sort(held)
			how := "end"
			if ret != nil {
				how = "return"
			}
			exits = append(exits, how+"{"+strings.Join(held, ",")+"}")
		},
	})
	return exits
}
