package smat

import (
	"io"
	"os"

	"smat/internal/autotune"
	"smat/internal/features"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// Model is the serialisable artifact of the off-line stage: per trained
// thread count, the learned ruleset and per-format kernel choices; and the
// runtime thresholds.
type Model = autotune.Model

// Features holds the Table 2 sparse-structure parameters of a matrix.
type Features = features.Features

func featuresOf[T Float](m *matrix.CSR[T]) Features { return features.Extract(m) }

// LoadModel reads a model saved by Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return autotune.LoadModel(r) }

// LoadModelFile reads a model from a file path.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}

// HeuristicModel returns a hand-written model encoding the paper's Table 2
// observations directly as rules, for use without an off-line training run:
//
//   - matrices dominated by a few mostly-full diagonals → DIA
//   - regular rows (high ER_ELL, low var_RD, small max_RD) → ELL
//   - power-law degree distributions with R ∈ [1, 4] → COO
//   - everything else → CSR
//
// A trained model is more accurate; the heuristic model's confidences are
// deliberately modest so borderline inputs take the execute-and-measure
// path.
func HeuristicModel() *Model {
	attr := func(name string) int {
		for i, n := range features.AttributeNames {
			if n == name {
				return i
			}
		}
		panic("smat: unknown attribute " + name)
	}
	le := func(name string, th float64) mining.Condition {
		return mining.Condition{Attr: attr(name), Op: mining.OpLE, Threshold: th}
	}
	gt := func(name string, th float64) mining.Condition {
		return mining.Condition{Attr: attr(name), Op: mining.OpGT, Threshold: th}
	}
	rules := []mining.Rule{
		{ // Dense true diagonals and few of them: DIA.
			Conds: []mining.Condition{
				gt("NTdiags_ratio", 0.85),
				le("Ndiags", 128),
				gt("ER_DIA", 0.25),
			},
			Class: int(matrix.FormatDIA), Confidence: 0.93,
		},
		{ // Regular short rows: ELL.
			Conds: []mining.Condition{
				gt("ER_ELL", 0.85),
				le("var_RD", 1.0),
				le("max_RD", 64),
				le("NTdiags_ratio", 0.85),
			},
			Class: int(matrix.FormatELL), Confidence: 0.90,
		},
		{ // Scale-free degree distribution: COO.
			Conds: []mining.Condition{
				gt("R", 1.0),
				le("R", 4.0),
				gt("var_RD", 1.0),
			},
			Class: int(matrix.FormatCOO), Confidence: 0.88,
		},
		// CSR, the paper's majority format, covers the rest. The rule group
		// walk checks CSR before COO, so these rules must exclude the COO
		// region (R ∈ [1, 4] with irregular rows) explicitly.
		{
			Conds: []mining.Condition{gt("R", 4.0)},
			Class: int(matrix.FormatCSR), Confidence: 0.90,
		},
		{
			Conds: []mining.Condition{le("R", 1.0)},
			Class: int(matrix.FormatCSR), Confidence: 0.90,
		},
		{
			Conds: []mining.Condition{le("var_RD", 1.0)},
			Class: int(matrix.FormatCSR), Confidence: 0.87,
		},
	}
	return autotune.NewModel(autotune.DefaultConfidenceThreshold, autotune.DefaultMaxFill, autotune.ModelClass{
		Threads: 1,
		Kernels: map[string]string{
			matrix.FormatCSR.String(): "csr_parallel_nnz",
			matrix.FormatCOO.String(): "coo_parallel",
			matrix.FormatDIA.String(): "dia_blocked_parallel",
			matrix.FormatELL.String(): "ell_width_parallel",
		},
		Ruleset: &mining.Ruleset{
			AttrNames: features.AttributeNames,
			ClassNames: []string{
				matrix.FormatCSR.String(), matrix.FormatCOO.String(),
				matrix.FormatDIA.String(), matrix.FormatELL.String(),
			},
			Rules:   rules,
			Default: int(matrix.FormatCSR),
		},
	})
}
