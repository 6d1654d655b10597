package main

import (
	"bytes"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestTextOutputPositions runs smat-lint over a fixture package with known
// findings: exit status 1, and each finding on a positioned
// "file:line:col: [syncsafety]" line.
func TestTextOutputPositions(t *testing.T) {
	cmd := exec.Command("go", "run", "./cmd/smat-lint", "-bce=false", "-inline=false",
		"./internal/analysis/syncsafety/testdata/src/ss")
	cmd.Dir = "../.."
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit status 1 on findings, got %v\nstderr: %s", err, stderr.String())
	}
	positioned := regexp.MustCompile(`^\S+\.go:\d+:\d+: \[syncsafety\] \S`)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, line := range lines {
		if !positioned.MatchString(line) {
			t.Errorf("finding line is not file:line:col: [syncsafety] message: %q", line)
		}
	}
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("no findings on the seeded fixture\nstderr: %s", stderr.String())
	}
}

// TestSelectAnalyzers covers the -run selector, including the new
// atomicorder analyzer and the unknown-name error.
func TestSelectAnalyzers(t *testing.T) {
	got, err := selectAnalyzers("syncsafety,atomicorder")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "syncsafety" || got[1].Name != "atomicorder" {
		t.Fatalf("selectAnalyzers = %v", got)
	}
	if all, err := selectAnalyzers(""); err != nil || len(all) != 4 {
		t.Fatalf("default set: %v, %v", all, err)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown analyzer must error, got %v", err)
	}
}

// TestGateFindingPosition checks gate entries of the form file.go:symbol
// recover a file position.
func TestGateFindingPosition(t *testing.T) {
	f := gateFinding("bce", "internal/kernels/csr.go:csrChunk: Found IsInBounds x3", "new bounds check")
	if f.File != "internal/kernels/csr.go" || f.Line != 1 {
		t.Fatalf("gateFinding = %+v", f)
	}
	if f.Analyzer != "bce" || !strings.Contains(f.Message, "new bounds check") {
		t.Fatalf("gateFinding = %+v", f)
	}
	if f := gateFinding("inline", "no-position-entry", "msg"); f.File != "" {
		t.Fatalf("position invented for positionless entry: %+v", f)
	}
}
