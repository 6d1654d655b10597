package smat

import (
	"os"
	"testing"

	"smat/internal/autotune"
)

// TestShippedModelLoads guards the pretrained artifact: model.json must
// always load and drive a working tuner.
func TestShippedModelLoads(t *testing.T) {
	if _, err := os.Stat("model.json"); err != nil {
		t.Skip("model.json not present")
	}
	model, err := LoadModelFile("model.json")
	if err != nil {
		t.Fatalf("shipped model does not load: %v", err)
	}
	if len(model.Classes[0].Ruleset.Rules) == 0 {
		t.Fatal("shipped model has no rules")
	}
	tuner := NewTuner[float64](model, WithThreads(1))
	a, err := FromEntries(200, 200, diagEntries(200))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 200)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, 200)
	if err := tuner.CSRSpMV(a, x, y); err != nil {
		t.Fatalf("shipped model cannot drive SpMV: %v", err)
	}
}

// TestShippedDatabaseLoads guards features.db.jsonl: it must load and
// support measurement-free retraining.
func TestShippedDatabaseLoads(t *testing.T) {
	f, err := os.Open("features.db.jsonl")
	if err != nil {
		t.Skip("features.db.jsonl not present")
	}
	defer f.Close()
	db, err := autotune.LoadDatabase(f)
	if err != nil {
		t.Fatalf("shipped database does not load: %v", err)
	}
	if len(db.Records) < 1000 {
		t.Fatalf("shipped database has %d records, want the full training run", len(db.Records))
	}
	res, err := autotune.TrainFromDatabase(db, autotune.TrainConfig{})
	if err != nil {
		t.Fatalf("retraining from shipped database failed: %v", err)
	}
	for _, cl := range res.Classes {
		if cl.TrainAccuracy < 0.85 {
			t.Errorf("%d threads: retrained accuracy %.2f, want ≥0.85", cl.Threads, cl.TrainAccuracy)
		}
	}
}
