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

// TestListPasses prints exactly the registered passes, in order.
func TestListPasses(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-list"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errb.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "eventpair hotpathalloc lockorder reentry snapshot waitloop"; got != want {
		t.Errorf("-list passes = %q, want %q", got, want)
	}
}

// TestRetiredPassRejected: the view passes merged into snapshot; selecting
// one by its old name is an unknown pass.
func TestRetiredPassRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-passes", "atomicpublish"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	if msg := errb.String(); !strings.Contains(msg, `unknown pass "atomicpublish"`) || !strings.Contains(msg, "valid passes: eventpair, hotpathalloc, lockorder, reentry, snapshot, waitloop") {
		t.Errorf("stderr should reject the old name and list the registry: %s", msg)
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
