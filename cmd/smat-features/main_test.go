package main

import (
	"os"
	"testing"
	"time"

	"smat"
	"smat/internal/autotune"
	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/matrix"
)

// TestAddKeepsTheDatabaseTrainable: a row labeled under the default model
// joins the shipped database, which still relearns; a row timed with another
// CSR kernel than the database's rows at its thread count is refused, and the
// database keeps the rows it had.
func TestAddKeepsTheDatabaseTrainable(t *testing.T) {
	f, err := os.Open("../../features.db.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	db, err := autotune.LoadDatabase(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := gen.Laplacian2D5pt[float64](12, 12)
	feat := features.Extract(m)
	label := func(model *smat.Model) autotune.Label {
		l := autotune.NewLabeler(model.Class(1).Choice(), 1, autotune.MeasureOptions{MinTime: 100 * time.Microsecond, Trials: 1})
		defer l.Close()
		return l.Label(m)
	}

	if err := add(db, "lap2d", feat, label(smat.DefaultModel())); err != nil {
		t.Fatalf("a row labeled under the default model: %v", err)
	}
	if _, err := autotune.TrainFromDatabase(db); err != nil {
		t.Fatalf("the database with the added row does not retrain: %v", err)
	}

	other := smat.DefaultModel()
	csr := matrix.FormatCSR.String()
	other.Class(1).Kernels[csr] = "csr_parallel_nnz"
	lbl := label(other)
	if lbl.Kernels[matrix.FormatCSR] == smat.DefaultModel().Class(1).Kernels[csr] {
		t.Fatalf("premise gone: the other model timed CSR with the default's kernel %s", lbl.Kernels[matrix.FormatCSR])
	}
	rows := len(db.Records)
	if err := add(db, "lap2d", feat, lbl); err == nil {
		t.Error("a row timed with another CSR kernel was added")
	}
	if len(db.Records) != rows {
		t.Errorf("the refused row left %d rows, want %d", len(db.Records), rows)
	}
}
