// Fixture for the hotpathalloc pass: each annotated function isolates one
// allocating construct; good* functions prove the allowed idioms (value
// composite literals, array writes, pointer-shaped interface stores).
package hotpathalloc

import "fmt"

type entry struct{ id int }

type ring struct {
	buf [4]entry
	n   int
}

//pbox:hotpath
func goodValueLiteral(r *ring, id int) {
	e := entry{id: id}
	r.buf[r.n&3] = e
	r.n++
}

//pbox:hotpath
func badMake() []int {
	return make([]int, 4) // want `allocates: make`
}

//pbox:hotpath
func badParenMake() []int {
	return (make)([]int, 4) // want `allocates: make`
}

//pbox:hotpath
func badNew() *entry {
	return new(entry) // want `allocates: new`
}

//pbox:hotpath
func badEscape() *entry {
	return &entry{id: 1} // want `&composite literal escapes`
}

//pbox:hotpath
func badSliceLit() []int {
	return []int{1, 2} // want `allocates: slice literal`
}

//pbox:hotpath
func badMapLit() map[int]int {
	return map[int]int{} // want `allocates: map literal`
}

//pbox:hotpath
func badAppend(s []int) []int {
	return append(s, 1) // want `append may grow`
}

//pbox:hotpath
func badClosure() func() {
	return func() {} // want `function literal`
}

//pbox:hotpath
func badFmt(id int) {
	fmt.Println(id)   // want `fmt\.Println`
	(fmt.Println)(id) // want `fmt\.Println`
}

//pbox:hotpath
func badConcat(a, b string) string {
	return a + b // want `non-constant string concatenation`
}

//pbox:hotpath
func badStringConv(b []byte) string {
	return string(b) // want `string/\[\]byte conversion`
}

//pbox:hotpath
func badBoxing(id int) any {
	return id // want `int value boxed into interface`
}

//pbox:hotpath
func badBoxingArg(id int) {
	sink(id) // want `int value boxed into interface`
}

func sink(v any) { _ = v }

//pbox:hotpath
func goodPointerIface(e *entry) any {
	return e
}

//pbox:hotpath
func goodConstConcat() string {
	const prefix = "pbox:"
	return prefix + "hot"
}

// unannotated functions allocate freely.
func unannotated() []int {
	return make([]int, 8)
}

// The capture recorder's enqueue shape: copy a record value into a
// preallocated double buffer and poke a wake channel — allocation-free.

type record struct {
	kind byte
	id   int
	at   int64
}

type recorderSink struct {
	buf      []record
	n        int
	wake     chan struct{}
	overflow []record
}

//pbox:hotpath
func goodRecorderEnqueue(s *recorderSink, id int, at int64) {
	if s.n == len(s.buf) {
		return
	}
	s.buf[s.n] = record{kind: 5, id: id, at: at}
	s.n++
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

//pbox:hotpath
func badRecorderEnqueue(s *recorderSink, rec record) {
	s.overflow = append(s.overflow, rec) // want `append may grow`
}
