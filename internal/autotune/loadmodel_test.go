package autotune_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"smat/internal/autotune"
	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/matrix"
)

// shippedModel returns the bytes of the repository's model.json.
func shippedModel(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile("../../model.json")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestLoadModelRejectsOutOfRangeIndices: model.json with one field edited to
// point outside the ruleset — a condition on attribute 99 of 11, a rule of
// class 9 or a default of 17 of four — fails LoadModel with an error. Loaded,
// the attribute indexed out of range at the first tune.
func TestLoadModelRejectsOutOfRangeIndices(t *testing.T) {
	data := shippedModel(t)
	if _, err := autotune.LoadModel(bytes.NewReader(data)); err != nil {
		t.Fatalf("the shipped model does not load: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(rs map[string]any)
	}{
		{"condition attr 99", func(rs map[string]any) {
			cond := rs["rules"].([]any)[0].(map[string]any)["conds"].([]any)[0].(map[string]any)
			cond["attr"] = 99
		}},
		{"rule class 9", func(rs map[string]any) {
			rs["rules"].([]any)[0].(map[string]any)["class"] = 9
		}},
		{"default 17", func(rs map[string]any) { rs["default"] = 17 }},
	} {
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		c.edit(m["classes"].([]any)[0].(map[string]any)["ruleset"].(map[string]any))
		edited, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := autotune.LoadModel(bytes.NewReader(edited)); err == nil {
			t.Errorf("%s: model loaded", c.name)
		}
	}
}

// ntdiagsModel is a hand-written model file whose one rule tests
// NTdiags_ratio, which no trained model does (DefaultTree weighs it 0).
const ntdiagsModel = `{"version": 2, "confidence_threshold": 0.85, "classes": [{"threads": 1, "ruleset": {
	"attr_names": ["M", "N", "NNZ", "aver_RD", "max_RD", "var_RD", "Ndiags", "NTdiags_ratio", "ER_DIA", "ER_ELL", "R"],
	"class_names": ["CSR", "COO", "DIA", "ELL"],
	"rules": [{"conds": [{"attr": 7, "op": 1, "threshold": 0.85}], "class": 2, "confidence": 0.93}],
	"default": 0}}]}`

// TestModelTestingNTdiagsRatioRunsOnTheSample: a model file that tests
// NTdiags_ratio loads, and its tuner decides on the sampled ratio
// (features.Estimated): a band the sample finds all true is picked as DIA; a
// matrix whose sampled ratio is below the rule's threshold is not.
func TestModelTestingNTdiagsRatioRunsOnTheSample(t *testing.T) {
	model, err := autotune.LoadModel(strings.NewReader(ntdiagsModel))
	if err != nil {
		t.Fatal(err)
	}
	tuner := autotune.New[float64](model, autotune.Config{Threads: 1, CacheSize: -1})
	defer tuner.Close()
	for _, c := range []struct {
		name string
		m    *matrix.CSR[float64]
		dia  bool
	}{
		{"band", gen.MultiDiagonal[float64](3000, []int{-2, -1, 0, 1, 2}, rand.New(rand.NewSource(1))), true},
		{"random", gen.RandomUniform[float64](3000, 3000, 8, rand.New(rand.NewSource(2))), false},
	} {
		_, d, err := tuner.Tune(c.m)
		if err != nil {
			t.Fatal(err)
		}
		est, _ := features.Estimated(c.m)
		if d.Features != est {
			t.Errorf("%s: the tune decided on %+v, not the sampled record %+v", c.name, d.Features, est)
		}
		if got := d.PredictedOK && d.Predicted == matrix.FormatDIA; got != c.dia {
			t.Errorf("%s: sampled NTdiags_ratio %v, picked DIA %v, want %v", c.name, est.NTdiagsRatio, got, c.dia)
		}
	}
}

// FuzzLoadModel: whatever LoadModel accepts tunes without panicking, and the
// operator it yields computes the CSR product.
func FuzzLoadModel(f *testing.F) {
	f.Add(shippedModel(f))
	// A class naming a retired kernel, which LoadModel rejects.
	f.Add(bytes.Replace(shippedModel(f), []byte(`"csr_parallel_nnz_unroll4"`), []byte(`"csr_parallel_nnz_u8"`), 1))
	f.Add([]byte(ntdiagsModel))

	inputs := []*matrix.CSR[float64]{
		gen.Laplacian2D5pt[float64](12, 12),
		gen.RandomUniform[float64](200, 200, 4, rand.New(rand.NewSource(1))),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		model, err := autotune.LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		tuner := autotune.New[float64](model, autotune.Config{Threads: 1})
		defer tuner.Close()
		for _, m := range inputs {
			op, _, err := tuner.Tune(m)
			if err != nil {
				t.Fatalf("%dx%d: %v", m.Rows, m.Cols, err)
			}
			x := make([]float64, m.Cols)
			for i := range x {
				x[i] = float64(1 + i%7)
			}
			y := make([]float64, m.Rows)
			op.MulVec(x, y)
			for i := range y {
				var want float64
				for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
					want += m.Vals[j] * x[m.ColIdx[j]]
				}
				if math.Abs(y[i]-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%dx%d via %s: y[%d] = %g, want %g", m.Rows, m.Cols, op.KernelName(), i, y[i], want)
				}
			}
		}
	})
}
