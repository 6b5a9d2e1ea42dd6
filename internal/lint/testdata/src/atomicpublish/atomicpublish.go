// Fixture for the snapshot pass's publish roots: values stored through an
// atomic.Pointer are published and must never be written again through a
// retained alias.
package atomicpublish

import "sync/atomic"

type view struct {
	n int
	s []int
}

type holder struct {
	p atomic.Pointer[view]
}

// badWriteAfterStore mutates the published value directly.
func badWriteAfterStore(h *holder) {
	v := &view{}
	h.p.Store(v)
	v.n = 1 // want `write through v after v was published via atomic\.Pointer\.Store`
}

// badAliasWrite mutates through an alias retained before the publish.
func badAliasWrite(h *holder) {
	v := &view{}
	q := v
	h.p.Store(v)
	q.n = 2 // want `write through q after v was published via atomic\.Pointer\.Store`
}

// badCopyInto copies into the published value's slice.
func badCopyInto(h *holder, src []int) {
	v := &view{s: make([]int, 4)}
	h.p.Store(v)
	copy(v.s, src) // want `copy into v after v was published`
}

// mutate writes through its parameter — its §14 mutation summary marks it.
func mutate(v *view) {
	v.n = 9
}

// badMutatingCall hands the published value to a writer.
func badMutatingCall(h *holder) {
	v := &view{}
	h.p.Store(v)
	mutate(v) // want `call to mutate \(which writes through its parameter\) passing v`
}

// badSwapResult writes through the previously published value Swap returns —
// concurrent readers may still hold it.
func badSwapResult(h *holder, next *view) {
	old := h.p.Swap(next)
	old.n = 3 // want `write through old after receiving the previously published value from atomic\.Pointer\.Swap`
}

// badAddrPublish publishes &local: every later write to the variable lands
// in published memory, peeled or not.
func badAddrPublish(h *holder) {
	v := view{}
	h.p.Store(&v)
	v = view{n: 4} // want `write through v after v was published`
}

// goodBuildThenPublish writes before the publish and only reads after.
func goodBuildThenPublish(h *holder) int {
	v := &view{}
	v.n = 5
	h.p.Store(v)
	return v.n
}

// goodRebind re-points the local at a fresh value; the published one is
// untouched.
func goodRebind(h *holder) {
	v := &view{}
	h.p.Store(v)
	v = &view{n: 6}
	_ = v
}

// reader only reads its parameter; passing the published value is fine.
func reader(v *view) int {
	return v.n
}

// goodReadingCall passes the published value to a non-writer.
func goodReadingCall(h *holder) int {
	v := &view{}
	h.p.Store(v)
	return reader(v)
}

// goodCopyOnWrite is the sanctioned update shape: clone, mutate the clone,
// re-publish.
func goodCopyOnWrite(h *holder) {
	old := h.p.Load()
	next := &view{n: old.n + 1}
	h.p.Store(next)
}

// badWriteAfterCAS mutates the value a successful CompareAndSwap installed:
// readers load it from the call on.
func badWriteAfterCAS(h *holder) {
	old := h.p.Load()
	next := &view{n: old.n}
	if h.p.CompareAndSwap(old, next) {
		next.n++ // want `write through next after next was published via atomic\.Pointer\.CompareAndSwap`
	}
}

// goodCASLoop is copy-on-write with a retry: every write to next precedes the
// CompareAndSwap that publishes it.
func goodCASLoop(h *holder) {
	for {
		old := h.p.Load()
		next := &view{n: old.n}
		next.n++
		if h.p.CompareAndSwap(old, next) {
			return
		}
	}
}

// guarded is a lock-guarded object that a hint names while it has an owner.
type guarded struct {
	n int
}

type owner struct {
	hint atomic.Pointer[guarded]
}

// goodHintCAS: values reach hint only by CompareAndSwap and leave by
// Store(nil), so it holds no snapshot — the object it names is written on by
// whoever took it, under the object's own lock.
func goodHintCAS(o *owner, g *guarded) {
	if o.hint.CompareAndSwap(nil, g) {
		g.n++
	}
	o.hint.Store(nil)
}
