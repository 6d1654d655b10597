package smat

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"smat/internal/matrix"
)

func TestLoadModelFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := HeuristicModel().Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Classes[0].Ruleset.Rules) != len(HeuristicModel().Classes[0].Ruleset.Rules) {
		t.Error("loaded model differs")
	}
	if _, err := LoadModelFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestHeuristicModelIsValid(t *testing.T) {
	m := HeuristicModel()
	if m.ConfidenceThreshold <= 0 || m.ConfidenceThreshold > 1 {
		t.Errorf("threshold %g", m.ConfidenceThreshold)
	}
	// Every referenced kernel must exist in the library (checked indirectly:
	// a tuner built from the model must resolve them, not fall back).
	tuner := NewTuner[float64](m, WithThreads(1))
	a, err := FromEntries(100, 100, diagEntries(100))
	if err != nil {
		t.Fatal(err)
	}
	op, err := tuner.Tune(a)
	if err != nil {
		t.Fatal(err)
	}
	if op.KernelName() != m.Classes[0].Kernels[FormatDIA.String()] {
		t.Errorf("kernel %q, want the model's DIA choice %q",
			op.KernelName(), m.Classes[0].Kernels[FormatDIA.String()])
	}
	// Rule classes must be within the four basic formats.
	for i, r := range m.Classes[0].Ruleset.Rules {
		if r.Class < 0 || r.Class > int(matrix.FormatELL) {
			t.Errorf("rule %d class %d outside basic formats", i, r.Class)
		}
	}
}

func TestTunerThreadsClamped(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(10000))
	if tuner.Threads() < 1 {
		t.Error("threads < 1")
	}
}

// TestDefaultThreadsAreGOMAXPROCS: a tuner built without WithThreads runs at
// GOMAXPROCS, whatever thread counts its model was trained at — the heuristic
// model's one class is trained at one thread, and runs at every count.
func TestDefaultThreadsAreGOMAXPROCS(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel())
	defer tuner.Close()
	if got, want := tuner.Threads(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default tuner runs at %d threads, want GOMAXPROCS = %d", got, want)
	}
}

func TestOperatorAccessors(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(1))
	a, err := FromEntries(50, 50, diagEntries(50))
	if err != nil {
		t.Fatal(err)
	}
	op, err := tuner.Tune(a)
	if err != nil {
		t.Fatal(err)
	}
	if op.Format() != FormatDIA {
		t.Errorf("Format = %v", op.Format())
	}
	if op.KernelName() == "" {
		t.Error("empty kernel name")
	}
	d := op.Decision()
	if d.Chosen != FormatDIA || d.Overhead() < 0 {
		t.Errorf("decision %+v", d)
	}
}
