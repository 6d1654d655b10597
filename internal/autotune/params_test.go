package autotune

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// fullParams exercises every Params field at once.
var fullParams = kernels.Params{Unroll: 8, HybCut: 0.5}

func TestDecisionJSONRoundTripParams(t *testing.T) {
	d := Decision{
		Predicted:   matrix.FormatELL,
		PredictedOK: true,
		Confidence:  0.9,
		Chosen:      matrix.FormatELL,
		Kernel:      "ell_parallel_u8",
		Params:      fullParams,
	}
	data, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	var back Decision
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Params != d.Params {
		t.Errorf("Params changed in round trip: %+v vs %+v", back.Params, d.Params)
	}
	if back.Kernel != d.Kernel || back.Chosen != d.Chosen {
		t.Errorf("decision identity changed: %+v", back)
	}

	// A zero Params must serialise to nothing (fixed-menu decisions stay
	// byte-compatible with pre-parameter consumers).
	d.Params = kernels.Params{}
	data, err = json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "unroll") || strings.Contains(string(data), "hyb_cut") {
		t.Errorf("zero Params leaked fields into JSON: %s", data)
	}
}

func TestModelParamsRoundTrip(t *testing.T) {
	m := modelAlways(matrix.FormatELL, 0.95)
	m.Classes[0].Params = map[string]kernels.Params{
		matrix.FormatELL.String(): {Unroll: 8},
		matrix.FormatDIA.String(): {Unroll: 2},
		matrix.FormatHYB.String(): {HybCut: 0.1},
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != ModelSchemaVersion {
		t.Errorf("version %d, want %d", back.Version, ModelSchemaVersion)
	}
	if len(back.Classes[0].Params) != len(m.Classes[0].Params) {
		t.Fatalf("%d param entries, want %d", len(back.Classes[0].Params), len(m.Classes[0].Params))
	}
	for f, p := range m.Classes[0].Params {
		if back.Classes[0].Params[f] != p {
			t.Errorf("params[%s] = %+v, want %+v", f, back.Classes[0].Params[f], p)
		}
	}
}

func TestLoadModelRejectsNewerVersion(t *testing.T) {
	m := modelAlways(matrix.FormatCSR, 0.95)
	m.Version = ModelSchemaVersion + 1
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil {
		t.Fatal("model from a newer schema accepted")
	}
}

func TestDatabaseParamsRoundTrip(t *testing.T) {
	db := sampleDatabase() // rows without parameters
	f := db.Records[0].Features
	db.Append("blocked", "test", f, Label{
		Best: matrix.FormatDIA, GFLOPS: map[matrix.Format]float64{matrix.FormatDIA: 3}, Threads: 2,
		Params: map[matrix.Format]kernels.Params{
			matrix.FormatDIA: {Unroll: 8},
			matrix.FormatELL: {Unroll: 2},
		},
	})
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
	last := back.Records[len(back.Records)-1]
	if last.Schema != DatabaseSchemaVersion || last.Threads != 2 {
		t.Errorf("schema %d, %d threads; want %d, 2", last.Schema, last.Threads, DatabaseSchemaVersion)
	}
	if got := last.Params["DIA"]; got != (kernels.Params{Unroll: 8}) {
		t.Errorf("DIA params = %+v", got)
	}
	if got := last.Params["ELL"]; got != (kernels.Params{Unroll: 2}) {
		t.Errorf("ELL params = %+v", got)
	}
	// Every row carries the schema, those without parameters too.
	if back.Records[0].Schema != DatabaseSchemaVersion || back.Records[0].Params != nil {
		t.Errorf("parameter-free row: %+v", back.Records[0])
	}
	// Rows with and without parameters retrain together (params are advisory).
	if _, err := TrainFromDatabase(back, TrainConfig{}); err != nil {
		t.Fatalf("database does not retrain: %v", err)
	}
}

// TestLoadersIgnoreRetiredParamKeys: files written while Params still had a
// batch register tile, a DIA density floor and a register-block shape load,
// and the retired keys read as nothing.
func TestLoadersIgnoreRetiredParamKeys(t *testing.T) {
	const retired = `{"unroll":8,"batch_tile":2,"dia_min_density":0.05,"block_r":8,"block_c":2}`
	want := kernels.Params{Unroll: 8}

	m := modelAlways(matrix.FormatDIA, 0.95)
	m.Classes[0].Params = map[string]kernels.Params{"DIA": want}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	var classes []map[string]json.RawMessage
	if err := json.Unmarshal(raw["classes"], &classes); err != nil {
		t.Fatal(err)
	}
	classes[0]["params"] = json.RawMessage(`{"DIA":` + retired + `}`)
	var err error
	if raw["classes"], err = json.Marshal(classes); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("model with retired keys: %v", err)
	}
	if got := back.Classes[0].Params["DIA"]; got != want {
		t.Errorf("model DIA params = %+v, want %+v", got, want)
	}

	row := `{"schema":2,"threads":1,"name":"x","features":{},"best":"DIA","params":{"DIA":` + retired + `}}` + "\n"
	db, err := LoadDatabase(strings.NewReader(row))
	if err != nil {
		t.Fatalf("database row with retired keys: %v", err)
	}
	if got := db.Records[0].Params["DIA"]; got != want {
		t.Errorf("database DIA params = %+v, want %+v", got, want)
	}
}

func TestLoadDatabaseRejectsNewerSchema(t *testing.T) {
	row := `{"schema":3,"threads":1,"name":"x","features":{},"best":"CSR"}` + "\n"
	if _, err := LoadDatabase(strings.NewReader(row)); err == nil {
		t.Fatal("record from a newer schema accepted")
	}
}

// TestSearchMatrixParamsPrunes pins the feature-guided pruning rule: a
// hypersparse diagonal tally skips the whole DIA walk.
func TestSearchMatrixParamsPrunes(t *testing.T) {
	lib := kernels.NewLibrary[float64]()

	// 1000×1000 identity plus one far corner entry: two occupied diagonals,
	// each stored full-length, so ER_DIA ≈ 0.5 — but with a scattered band the
	// tally collapses. Use a matrix with a genuinely hypersparse tally: a
	// single dense row produces Ndiags = Cols with one element each.
	tr := make([]matrix.Triple[float64], 0, 64)
	for c := 0; c < 64; c++ {
		tr = append(tr, matrix.Triple[float64]{Row: 0, Col: c, Val: 1})
	}
	m, err := matrix.FromTriples(64, 64, tr)
	if err != nil {
		t.Fatal(err)
	}
	ft := features.Extract(m)
	if feasible(matrix.FormatDIA, &ft, DefaultMaxFill) {
		t.Skipf("spec not hypersparse enough: ERDIA=%g", ft.ERDIA)
	}
	res := SearchMatrixParams(lib, m, &ft, matrix.FormatDIA, 1, fastMeasure)
	if res.Kernel != "" || len(res.Pruned) == 0 {
		t.Errorf("hypersparse DIA walk not pruned: %+v", res)
	}
}
