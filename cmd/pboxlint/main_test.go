package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownPassRejected: a typo in -passes must fail loudly with the full
// registry listed, never silently run nothing.
func TestUnknownPassRejected(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-passes", "lockodrer"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown pass "lockodrer"`) {
		t.Errorf("stderr missing unknown-pass diagnostic: %s", msg)
	}
	if !strings.Contains(msg, "valid passes:") || !strings.Contains(msg, "lockorder") {
		t.Errorf("stderr should list the valid passes: %s", msg)
	}
}

// TestEmptySelectionRejected: "-passes ," nets zero passes and must also be
// an error, not a green no-op.
func TestEmptySelectionRejected(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-passes", ","}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "selects no passes") {
		t.Errorf("stderr missing empty-selection diagnostic: %s", errb.String())
	}
}

// TestListPasses prints every registered pass.
func TestListPasses(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-list"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errb.String())
	}
	for _, name := range []string{"atomicpublish", "eventpair", "hotpathalloc", "lockorder", "reentry", "snapshotreader", "viewimmut", "waitloop"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestCleanPackage runs the real driver over this package: no finding, no
// output, exit 0.
func TestCleanPackage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"."}, &out, &errb); code != 0 || out.Len() != 0 {
		t.Fatalf("exit = %d, want 0 and no findings (this package is clean); stdout: %s stderr: %s", code, out.String(), errb.String())
	}
}
