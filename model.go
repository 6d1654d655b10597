package smat

import (
	"bytes"
	_ "embed"
	"io"
	"os"

	"smat/internal/autotune"
	"smat/internal/features"
	"smat/internal/matrix"
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

// shippedModel is model.json, the model README's "Training" command writes:
// the rulesets learned from features.db.jsonl at one and two threads, and the
// kernels their labels were timed with.
//
//go:embed model.json
var shippedModel []byte

// DefaultModel returns the shipped model (model.json), trained off-line on
// the measured labels of features.db.jsonl. Each call parses it again, so
// the caller owns the model it gets: changing it changes no other caller's.
func DefaultModel() *Model {
	m, err := LoadModel(bytes.NewReader(shippedModel))
	if err != nil {
		panic("smat: the embedded model.json does not load: " + err.Error())
	}
	return m
}
