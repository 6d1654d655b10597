package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"strings"
	"testing"
)

// TestJSONOutputDecodes runs the driver with -json over a fixture package
// with known findings and decodes the stream: one JSON object per line,
// every field populated, exit status 1.
func TestJSONOutputDecodes(t *testing.T) {
	cmd := exec.Command("go", "run", "./cmd/smat-lint",
		"-json", "-tests=false", "-bce=false", "-inline=false",
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

	dec := json.NewDecoder(strings.NewReader(stdout.String()))
	var count int
	for dec.More() {
		var f finding
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("finding %d does not decode: %v\noutput:\n%s", count, err, stdout.String())
		}
		if f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding %d missing analyzer or message: %+v", count, f)
		}
		if f.File == "" || f.Line == 0 {
			t.Errorf("analyzer finding %d carries no position: %+v", count, f)
		}
		count++
	}
	if count == 0 {
		t.Fatalf("no findings decoded from the seeded fixture\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
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
	if all, err := selectAnalyzers(""); err != nil || len(all) != 5 {
		t.Fatalf("default set: %v, %v", all, err)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown analyzer must error, got %v", err)
	}
}

// TestGateFindingPosition checks gate entries of the form file.go:symbol
// recover a file position for the JSON stream.
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
