package smat

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"smat/internal/matrix"
)

// TestDefaultModelIsShipped: DefaultModel is model.json, byte for byte once
// saved, and each call's model is its own: a change to one is not seen by the
// next call.
func TestDefaultModelIsShipped(t *testing.T) {
	saved := func(m *Model) []byte {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	file, err := LoadModelFile("model.json")
	if err != nil {
		t.Fatal(err)
	}
	want := saved(file)
	m := DefaultModel()
	if !bytes.Equal(saved(m), want) {
		t.Fatal("DefaultModel saves to other bytes than model.json")
	}
	m.ConfidenceThreshold = 0.5
	m.Classes[0].Kernels[FormatCSR.String()] = "csr_serial"
	m.Classes[0].Ruleset.Rules[0].Confidence = 0
	m.Classes[0].Ruleset.Rules[0].Conds[0].Threshold++
	if !bytes.Equal(saved(DefaultModel()), want) {
		t.Error("a change to one DefaultModel is seen by the next call")
	}
}

func TestLoadModelFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := DefaultModel().Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Classes[0].Ruleset.Rules) != len(DefaultModel().Classes[0].Ruleset.Rules) {
		t.Error("loaded model differs")
	}
	if _, err := LoadModelFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDefaultModelIsValid(t *testing.T) {
	m := DefaultModel()
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
	if want := m.Class(1).Kernels[FormatDIA.String()]; op.KernelName() != want {
		t.Errorf("kernel %q, want the model's DIA choice %q", op.KernelName(), want)
	}
	// Rule classes must be within the four basic formats.
	for _, c := range m.Classes {
		for i, r := range c.Ruleset.Rules {
			if r.Class < 0 || r.Class > int(matrix.FormatELL) {
				t.Errorf("%d threads: rule %d class %d outside basic formats", c.Threads, i, r.Class)
			}
		}
	}
}

func TestTunerThreadsClamped(t *testing.T) {
	tuner := NewTuner[float64](DefaultModel(), WithThreads(10000))
	if tuner.Threads() < 1 {
		t.Error("threads < 1")
	}
}

// TestDefaultThreadsAreGOMAXPROCS: a tuner built without WithThreads runs at
// GOMAXPROCS, whatever thread counts its model was trained at — the shipped
// model's classes are trained at one and two threads, and run at every count.
func TestDefaultThreadsAreGOMAXPROCS(t *testing.T) {
	tuner := NewTuner[float64](DefaultModel())
	defer tuner.Close()
	if got, want := tuner.Threads(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default tuner runs at %d threads, want GOMAXPROCS = %d", got, want)
	}
}

func TestOperatorAccessors(t *testing.T) {
	tuner := NewTuner[float64](DefaultModel(), WithThreads(1))
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
