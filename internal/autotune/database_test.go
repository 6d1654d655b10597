package autotune

import (
	"bytes"
	"maps"
	"math"
	"os"
	"strings"
	"testing"

	"smat/internal/features"
	"smat/internal/matrix"
)

func sampleDatabase() *Database {
	db := &Database{}
	mk := func(name string, ntd, erell, r float64, best matrix.Format) {
		f := features.Features{
			M: 100, N: 100, NNZ: 500,
			AverRD: 5, MaxRD: 8, VarRD: 1,
			Ndiags: 10, NTdiagsRatio: ntd, ERDIA: 0.5, ERELL: erell, R: r,
		}
		db.Append(name, "test", f, Label{
			Best:    best,
			GFLOPS:  map[matrix.Format]float64{best: 2.0, matrix.FormatCSR: 1.0},
			Kernels: map[matrix.Format]string{matrix.FormatDIA: "dia_blocked_parallel"},
			Threads: 2,
		})
	}
	for i := 0; i < 20; i++ {
		mk("dia", 0.95, 0.5, features.RNone, matrix.FormatDIA)
		mk("ell", 0.1, 0.99, features.RNone, matrix.FormatELL)
		mk("coo", 0.1, 0.2, 2.0, matrix.FormatCOO)
		mk("csr", 0.1, 0.2, features.RNone, matrix.FormatCSR)
	}
	return db
}

func TestDatabaseSaveLoadRoundTrip(t *testing.T) {
	db := sampleDatabase()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(db.Records) {
		t.Fatalf("%d records, want %d", len(back.Records), len(db.Records))
	}
	for i := range db.Records {
		a, b := db.Records[i], back.Records[i]
		if a.Name != b.Name || a.Best != b.Best || a.Features != b.Features {
			t.Fatalf("record %d changed: %+v vs %+v", i, a, b)
		}
		if a.GFLOPS["CSR"] != b.GFLOPS["CSR"] {
			t.Fatalf("record %d GFLOPS changed", i)
		}
	}
}

func TestLoadDatabaseRejectsCorrupt(t *testing.T) {
	cases := []string{
		"not json\n",
		`{"schema":2,"threads":1,"name":"x","features":{},"best":"NOPE"}` + "\n",
	}
	for i, c := range cases {
		if _, err := LoadDatabase(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Blank lines are tolerated.
	db, err := LoadDatabase(strings.NewReader("\n\n"))
	if err != nil || len(db.Records) != 0 {
		t.Errorf("blank input: %v, %d records", err, len(db.Records))
	}
}

func TestTrainFromDatabase(t *testing.T) {
	db := sampleDatabase()
	res, err := TrainFromDatabase(db, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil || len(res.Model.Classes[0].Ruleset.Rules) == 0 {
		t.Fatal("no model learned")
	}
	// The synthetic database is perfectly separable.
	if len(res.Classes) != 1 || res.Model.Classes[0].Threads != 2 {
		t.Fatalf("%d classes, the first at %d threads; want one, at the rows' 2", len(res.Classes), res.Model.Classes[0].Threads)
	}
	if res.Classes[0].TrainAccuracy < 0.99 {
		t.Errorf("accuracy %g on separable database", res.Classes[0].TrainAccuracy)
	}
	if res.Model.Classes[0].Kernels["DIA"] != "dia_blocked_parallel" {
		t.Error("the rows' kernel not carried into the model")
	}
	// The learned model must route the archetypes correctly.
	rs := res.Model.Classes[0].Ruleset
	diaVec := db.Records[0].Features.Vector()
	if got := rs.Predict(diaVec); got != int(matrix.FormatDIA) {
		t.Errorf("DIA archetype predicted %s", rs.ClassNames[got])
	}
	cooVec := db.Records[2].Features.Vector()
	if got := rs.Predict(cooVec); got != int(matrix.FormatCOO) {
		t.Errorf("COO archetype predicted %s", rs.ClassNames[got])
	}
}

func TestTrainFromDatabaseRejectsEmptyAndBadLabels(t *testing.T) {
	if _, err := TrainFromDatabase(&Database{}, TrainConfig{}); err == nil {
		t.Error("empty database accepted")
	}
	db := &Database{Records: []Record{{Schema: DatabaseSchemaVersion, Threads: 1, Name: "x", Best: "HYB"}}}
	if _, err := TrainFromDatabase(db, TrainConfig{}); err == nil {
		t.Error("extension-format label accepted into the basic 4-class model")
	}
}

// TestTrainFromDatabaseRejectsMixedKernels: a class binds the one kernel per
// format its rows were labeled with; rows of one thread count that name two
// do not train, rows of two thread counts may.
func TestTrainFromDatabaseRejectsMixedKernels(t *testing.T) {
	db := sampleDatabase()
	f := db.Records[0].Features
	lbl := Label{Best: matrix.FormatDIA, GFLOPS: map[matrix.Format]float64{matrix.FormatDIA: 3}, Threads: 1,
		Kernels: map[matrix.Format]string{matrix.FormatDIA: "dia_parallel"}}
	db.Append("one-thread", "test", f, lbl)
	if _, err := TrainFromDatabase(db, TrainConfig{}); err != nil {
		t.Fatalf("rows of two thread counts with their own kernels: %v", err)
	}
	lbl.Threads = 2
	db.Append("mixed", "test", f, lbl)
	if _, err := TrainFromDatabase(db, TrainConfig{}); err == nil {
		t.Error("two-thread rows naming two DIA kernels trained")
	}
}

func TestTrainPopulatesDatabase(t *testing.T) {
	res, err := Train(tinyTrainingSet(), TrainConfig{
		Threads:          []int{2},
		Measure:          fastMeasure,
		SkipKernelSearch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Database == nil || len(res.Database.Records) != len(res.Classes[0].Labels) {
		t.Fatal("Train did not populate the database")
	}
	for _, rec := range res.Database.Records {
		if rec.Schema != DatabaseSchemaVersion || rec.Threads != res.Classes[0].Threads {
			t.Fatalf("row %s stamped schema %d, %d threads; want %d, %d", rec.Name, rec.Schema, rec.Threads, DatabaseSchemaVersion, res.Classes[0].Threads)
		}
	}
	// Retraining from the produced database must be measurement-free and
	// reproduce the model's ruleset and kernels exactly.
	again, err := TrainFromDatabase(res.Database, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Model.Classes[0].Ruleset.Rules) != len(res.Model.Classes[0].Ruleset.Rules) {
		t.Errorf("retrained ruleset has %d rules, original %d",
			len(again.Model.Classes[0].Ruleset.Rules), len(res.Model.Classes[0].Ruleset.Rules))
	}
	if !maps.Equal(again.Model.Classes[0].Kernels, res.Model.Classes[0].Kernels) {
		t.Errorf("retrained kernels %v, original %v", again.Model.Classes[0].Kernels, res.Model.Classes[0].Kernels)
	}
	for _, ex := range res.Classes[0].Dataset.Examples {
		if again.Model.Classes[0].Ruleset.Predict(ex.Attrs) != res.Model.Classes[0].Ruleset.Predict(ex.Attrs) {
			t.Fatal("retrained model predicts differently")
		}
	}
}

// TestLoadDatabaseRejectsUnmeasurableRows: a row of another schema, without a
// thread count, or with a negative or non-finite feature or GFLOPS value does
// not load.
func TestLoadDatabaseRejectsUnmeasurableRows(t *testing.T) {
	for _, row := range []string{
		`{"threads":1,"name":"x","features":{},"best":"CSR"}`,
		`{"schema":2,"name":"x","features":{},"best":"CSR"}`,
		`{"schema":2,"threads":1,"name":"x","features":{"aver_RD":-1},"best":"CSR"}`,
		`{"schema":2,"threads":1,"name":"x","features":{"R":1e999},"best":"CSR"}`,
		`{"schema":2,"threads":1,"name":"x","features":{},"best":"CSR","gflops":{"CSR":-0.5}}`,
	} {
		if _, err := LoadDatabase(strings.NewReader(row + "\n")); err == nil {
			t.Errorf("row accepted: %s", row)
		}
	}
}

// FuzzLoadDatabase: whatever LoadDatabase accepts holds current-schema rows
// with a thread count and finite, non-negative features and GFLOPS; it saves
// and loads back to as many rows, and retraining from it returns a model or
// an error, never a panic.
func FuzzLoadDatabase(f *testing.F) {
	data, err := os.ReadFile("../../features.db.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	for _, i := range []int{0, 1, len(lines) / 2} {
		f.Add(lines[i])
	}
	f.Add(bytes.Join(lines[:8], nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := LoadDatabase(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, rec := range db.Records {
			ok := rec.Schema == DatabaseSchemaVersion && rec.Threads >= 1
			for _, v := range rec.Features.Vector() {
				ok = ok && v >= 0 && !math.IsInf(v, 0)
			}
			for _, v := range rec.GFLOPS {
				ok = ok && v >= 0 && !math.IsInf(v, 0)
			}
			if !ok {
				t.Fatalf("loaded row %+v", rec)
			}
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if back, err := LoadDatabase(&buf); err != nil || len(back.Records) != len(db.Records) {
			t.Fatalf("round trip: %v, %d rows of %d", err, len(back.Records), len(db.Records))
		}
		if len(db.Records) > 0 {
			_, _ = TrainFromDatabase(db, TrainConfig{})
		}
	})
}
