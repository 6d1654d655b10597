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
var fullParams = kernels.Params{
	Unroll: 8, BlockR: 2, BlockC: 4, HybCut: 0.5,
}

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
	if strings.Contains(string(data), "unroll") || strings.Contains(string(data), "block_r") {
		t.Errorf("zero Params leaked fields into JSON: %s", data)
	}
}

func TestModelParamsRoundTrip(t *testing.T) {
	m := modelAlways(matrix.FormatELL, 0.95)
	m.Version = ModelSchemaVersion
	m.Params = map[string]kernels.Params{
		matrix.FormatELL.String():  {Unroll: 8},
		matrix.FormatDIA.String():  {Unroll: 2},
		matrix.FormatBCSR.String(): {BlockR: 8, BlockC: 2},
		matrix.FormatHYB.String():  {HybCut: 0.1},
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
	if len(back.Params) != len(m.Params) {
		t.Fatalf("%d param entries, want %d", len(back.Params), len(m.Params))
	}
	for f, p := range m.Params {
		if back.Params[f] != p {
			t.Errorf("params[%s] = %+v, want %+v", f, back.Params[f], p)
		}
	}
}

func TestLoadModelV1BackCompat(t *testing.T) {
	// A v1 model (no params key) must load with a nil parameter map, and the
	// tuner built from it must resolve every format to the zero (fixed-menu)
	// parameters.
	m := modelAlways(matrix.FormatCSR, 0.95)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"params"`) {
		t.Fatalf("v1 model serialised a params key: %s", buf.String())
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Params != nil {
		t.Errorf("v1 model loaded with non-nil Params: %+v", back.Params)
	}
	tn := New[float64](back, Config{Threads: 2})
	defer tn.Close()
	for _, f := range matrix.Formats {
		if p := tn.paramsFor(f); !p.IsZero() {
			t.Errorf("v1 model: paramsFor(%s) = %+v, want zero", f, p)
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
	db := sampleDatabase() // schema-v1 rows
	f := db.Records[0].Features
	db.AppendParams("blocked", "test", f,
		Label{Best: matrix.FormatDIA, GFLOPS: map[matrix.Format]float64{matrix.FormatDIA: 3}},
		map[matrix.Format]kernels.Params{
			matrix.FormatDIA: {Unroll: 8},
			matrix.FormatELL: {Unroll: 2},
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
	if last.Schema != DatabaseSchemaVersion {
		t.Errorf("schema %d, want %d", last.Schema, DatabaseSchemaVersion)
	}
	if got := last.Params["DIA"]; got != (kernels.Params{Unroll: 8}) {
		t.Errorf("DIA params = %+v", got)
	}
	if got := last.Params["ELL"]; got != (kernels.Params{Unroll: 2}) {
		t.Errorf("ELL params = %+v", got)
	}
	// The v1 rows in front must stay schema-free and param-free.
	if back.Records[0].Schema != 0 || back.Records[0].Params != nil {
		t.Errorf("v1 row gained schema/params: %+v", back.Records[0])
	}
	// Mixed-schema databases must still retrain (params are advisory).
	if _, err := TrainFromDatabase(back, nil, TrainConfig{Threads: 2}); err != nil {
		t.Fatalf("mixed-schema database does not retrain: %v", err)
	}
}

// TestLoadersIgnoreRetiredParamKeys: files written while Params still had a
// batch register tile and a DIA density floor load, and the two keys read as
// nothing.
func TestLoadersIgnoreRetiredParamKeys(t *testing.T) {
	const retired = `{"unroll":8,"batch_tile":2,"dia_min_density":0.05}`
	want := kernels.Params{Unroll: 8}

	m := modelAlways(matrix.FormatDIA, 0.95)
	m.Version = ModelSchemaVersion
	m.Params = map[string]kernels.Params{"DIA": want}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	raw["params"] = json.RawMessage(`{"DIA":` + retired + `}`)
	data, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("model with retired keys: %v", err)
	}
	if got := back.Params["DIA"]; got != want {
		t.Errorf("model DIA params = %+v, want %+v", got, want)
	}

	row := `{"schema":2,"name":"x","features":{},"best":"DIA","params":{"DIA":` + retired + `}}` + "\n"
	db, err := LoadDatabase(strings.NewReader(row))
	if err != nil {
		t.Fatalf("database row with retired keys: %v", err)
	}
	if got := db.Records[0].Params["DIA"]; got != want {
		t.Errorf("database DIA params = %+v, want %+v", got, want)
	}
}

func TestLoadDatabaseRejectsNewerSchema(t *testing.T) {
	row := `{"schema":3,"name":"x","features":{},"best":"CSR"}` + "\n"
	if _, err := LoadDatabase(strings.NewReader(row)); err == nil {
		t.Fatal("record from a newer schema accepted")
	}
}

// TestSearchMatrixParamsPrunes pins the feature-guided pruning rules: a
// hypersparse diagonal tally skips the whole DIA walk, and an over-padding
// BCSR block shape is dropped before conversion.
func TestSearchMatrixParamsPrunes(t *testing.T) {
	lib := kernels.NewLibrary[float64]()
	lib.RegisterBCSR()

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

	// The same single-row matrix makes every large block shape pure padding:
	// at least the 8×2 shape must be pruned by the fill bound.
	res = SearchMatrixParams(lib, m, &ft, matrix.FormatBCSR, 1, fastMeasure)
	pruned := strings.Join(res.Pruned, ";")
	if !strings.Contains(pruned, "_8x2") {
		t.Errorf("8x2 block shape not pruned on a single-row matrix: %+v", res.Pruned)
	}
}
