package lint_test

import (
	"testing"

	"pbox/internal/lint/linttest"
	"pbox/internal/lint/snapshot"
)

// The snapshot pass runs over each fixture package that pins one of its
// rules; the x* packages load their deps siblings, so the findings cross a
// package boundary.

// TestAtomicPublish: values published through atomic.Pointer are not written
// after the publish.
func TestAtomicPublish(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), "atomicpublish", snapshot.Analyzer)
}

// TestAtomicPublishCrossPackage: xatomicdeps reaches a field with sync/atomic
// free functions, which xatomicmixed reads plainly; the free functions are
// the finding.
func TestAtomicPublishCrossPackage(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), "xatomicmixed", snapshot.Analyzer)
}

// TestViewImmut: obtained StatusViews are read-only outside builder context.
func TestViewImmut(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), "viewimmut", snapshot.Analyzer)
}

// TestViewImmutCrossPackage obtains views from xviewdeps and mutates them in
// xviewimmut; the mutation summaries cross the package boundary.
func TestViewImmutCrossPackage(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), "xviewimmut", snapshot.Analyzer)
}

// TestSnapshotReader: //pbox:snapshotreader closures never stop the world.
func TestSnapshotReader(t *testing.T) {
	linttest.Run(t, linttest.TestData(t), "snapshotreader", snapshot.Analyzer)
}
