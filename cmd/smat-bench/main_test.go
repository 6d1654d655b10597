package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentTable checks the names -experiment accepts: each non-empty,
// unique, and backed by a run function.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for i, e := range experimentTable() {
		if e.name == "" || e.run == nil {
			t.Errorf("experiment %d (%q): want a name and a run function", i, e.name)
		}
		if seen[e.name] {
			t.Errorf("duplicate experiment name %q", e.name)
		}
		seen[e.name] = true
	}
}

// TestCommittedArtifactsValid parses every BENCH_*.json at the module root:
// each must be the artifact of an experiment in the table and carry the
// envelope writeArtifact writes. A truncated or hand-edited artifact fails here
// instead of shipping an unreproducible number.
func TestCommittedArtifactsValid(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json at the module root")
	}
	artifacts := map[string]bool{}
	for _, e := range experimentTable() {
		artifacts[e.artifact()] = true
	}
	for _, path := range paths {
		file := filepath.Base(path)
		if !artifacts[file] {
			t.Errorf("%s is the artifact of no experiment in the table", file)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateArtifact(data, file); err != nil {
			t.Errorf("%s: %v", file, err)
		}
	}
}

// validateArtifact checks one artifact against the envelope: the experiment
// named by the file, a non-empty git provenance string, and a data object
// whose case array ("rows") is non-empty with a numeric timing field in every
// row.
func validateArtifact(data []byte, file string) error {
	var env struct {
		Experiment string `json:"experiment"`
		Git        string `json:"git"`
		Data       *struct {
			Rows []map[string]any `json:"rows"`
		} `json:"data"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("not a JSON envelope: %w", err)
	}
	switch {
	case env.Experiment == "":
		return errors.New(`missing "experiment"`)
	case "BENCH_"+env.Experiment+".json" != file:
		return fmt.Errorf("experiment %q does not match the file name", env.Experiment)
	case env.Git == "":
		return errors.New(`missing "git" provenance`)
	case env.Data == nil:
		return errors.New(`missing "data"`)
	case env.Data.Rows == nil:
		return errors.New(`"data" has no case array ("rows")`)
	case len(env.Data.Rows) == 0:
		return errors.New("case array is empty")
	}
	for i, row := range env.Data.Rows {
		if !hasTimingField(row) {
			return fmt.Errorf("case row %d has no numeric timing field (sec/flops/speedup)", i)
		}
	}
	return nil
}

// timingKeyRE matches the numeric fields that make a case row a measurement:
// wall-clock seconds, derived throughput, or a ratio of the two. Index and
// size fields ("number", "threads") do not count.
var timingKeyRE = regexp.MustCompile(`(?i)sec|flops|speedup`)

func hasTimingField(row map[string]any) bool {
	for key, v := range row {
		if _, ok := v.(float64); ok && timingKeyRE.MatchString(key) {
			return true
		}
	}
	return false
}

// TestValidateArtifact runs the validator over one valid envelope and every
// seeded way an artifact can be broken.
func TestValidateArtifact(t *testing.T) {
	cases := []struct {
		name, payload string
		wantSub       string // "" means valid
	}{
		{"valid", `{"experiment": "steady", "git": "abc1234",
			"data": {"threads": 8, "rows": [{"workload": "x", "pooled_sec_per_op": 1e-4}]}}`, ""},
		{"malformed JSON", `{"experiment": "steady",`, "not a JSON envelope"},
		{"missing experiment", `{"git": "abc", "data": {"rows": [{"sec": 1}]}}`, `missing "experiment"`},
		{"name/file mismatch", `{"experiment": "batch", "git": "abc", "data": {"rows": [{"sec": 1}]}}`, "does not match the file name"},
		{"missing git", `{"experiment": "steady", "data": {"rows": [{"sec": 1}]}}`, `missing "git"`},
		{"missing data", `{"experiment": "steady", "git": "abc"}`, `missing "data"`},
		{"null data", `{"experiment": "steady", "git": "abc", "data": null}`, `missing "data"`},
		{"no case array", `{"experiment": "steady", "git": "abc", "data": {"threads": 8}}`, "no case array"},
		{"empty case array", `{"experiment": "steady", "git": "abc", "data": {"rows": []}}`, "case array is empty"},
		{"row without timings", `{"experiment": "steady", "git": "abc", "data": {"rows": [{"workload": "x"}]}}`, "no numeric timing field"},
		{"row with only an index", `{"experiment": "steady", "git": "abc", "data": {"rows": [{"number": 1}]}}`, "no numeric timing field"},
		{"timing key, not a number", `{"experiment": "steady", "git": "abc", "data": {"rows": [{"sec": "fast"}]}}`, "no numeric timing field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateArtifact([]byte(tc.payload), "BENCH_steady.json")
			switch {
			case tc.wantSub == "" && err != nil:
				t.Fatalf("valid artifact rejected: %v", err)
			case tc.wantSub != "" && (err == nil || !strings.Contains(err.Error(), tc.wantSub)):
				t.Fatalf("got %v, want an error containing %q", err, tc.wantSub)
			}
		})
	}
}
