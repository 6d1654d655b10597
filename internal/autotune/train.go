package autotune

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"smat/internal/corpus"
	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// DefaultConfidenceThreshold gates runtime predictions: a format is accepted
// only when its matched rule-group confidence exceeds this value, otherwise
// the execute-and-measure fallback runs (Section 6).
const DefaultConfidenceThreshold = 0.85

// ModelSchemaVersion is the newest model schema this build writes. Version 1
// models (no parameter map) load unchanged: a nil Params map means every
// format runs its fixed-menu kernel with default parameters.
const ModelSchemaVersion = 2

// Model is the serialisable artifact of the off-line stage: the tailored
// ruleset, the per-format kernel choice for the trained architecture
// configuration, and the runtime thresholds. Generated once per architecture
// and reused for every input matrix.
type Model struct {
	Version             int               `json:"version"`
	Threads             int               `json:"threads"`
	ConfidenceThreshold float64           `json:"confidence_threshold"`
	MaxFill             float64           `json:"max_fill"`
	Kernels             map[string]string `json:"kernels"` // format name -> kernel name
	// Params is the schema-v2 addition: the per-format tunable parameters the
	// off-line search settled on (conversion-level knobs like BCSR block shape
	// and the HYB width cut, plus the unroll depth). Absent in v1 models,
	// where the zero Params — the fixed menu — applies everywhere. Keys a
	// Params no longer has (batch_tile, dia_min_density) load and are ignored.
	Params  map[string]kernels.Params `json:"params,omitempty"`
	Ruleset *mining.Ruleset           `json:"ruleset"`
}

// classNames maps mining class indices to format names; class index is the
// matrix.Format value.
func classNames() []string {
	return []string{
		matrix.FormatCSR.String(),
		matrix.FormatCOO.String(),
		matrix.FormatDIA.String(),
		matrix.FormatELL.String(),
	}
}

// TrainConfig controls the off-line training stage.
type TrainConfig struct {
	// Threads is the architecture configuration being trained (≤0:
	// GOMAXPROCS).
	Threads int
	// Measure controls each labeling measurement.
	Measure MeasureOptions
	// Tree configures the decision-tree inducer.
	Tree mining.TreeConfig
	// TailorLoss is the allowed training-accuracy loss of rule tailoring
	// (default 0.01, the paper's 1%).
	TailorLoss float64
	// ConfidenceThreshold for the runtime (default
	// DefaultConfidenceThreshold).
	ConfidenceThreshold float64
	// SkipKernelSearch labels with basic kernels instead of running the
	// scoreboard search first (used by fast tests).
	SkipKernelSearch bool
	// ProbeScale scales the kernel-search probe matrices.
	ProbeScale float64
	// Seed feeds the kernel-search probes.
	Seed int64
	// Progress, when non-nil, receives labeling progress.
	Progress func(done, total int)
}

// TrainResult is the trained model plus the artifacts of the off-line stage.
type TrainResult struct {
	Model         *Model
	Search        []SearchResult
	ParamSearch   []ParamSearchResult
	Labels        []Label
	Database      *Database
	Dataset       *mining.Dataset
	FullRuleset   *mining.Ruleset
	FullRules     int
	TailoredRules int
	TrainAccuracy float64
}

// Train runs the complete off-line stage on the given corpus entries:
// scoreboard kernel search, exhaustive labeling, feature extraction, tree
// induction, rule extraction and tailoring.
func Train(entries []*corpus.Entry, cfg TrainConfig) (*TrainResult, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("autotune: empty training set")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	if cfg.TailorLoss <= 0 {
		cfg.TailorLoss = 0.01
	}
	if cfg.ConfidenceThreshold <= 0 {
		cfg.ConfidenceThreshold = DefaultConfidenceThreshold
	}

	res := &TrainResult{}
	var choice KernelChoice
	var params ParamChoice
	if cfg.SkipKernelSearch {
		choice = KernelChoice{}
	} else {
		choice, params, res.Search, res.ParamSearch = SearchKernelsParams(SearchConfig{
			Threads:    cfg.Threads,
			ProbeScale: cfg.ProbeScale,
			Measure:    cfg.Measure,
			Seed:       cfg.Seed,
		})
	}

	// Labeling phase: measure every training matrix into the feature
	// database (the paper's Figure 4 "Feature Database"). With the kernel
	// search on, labeling walks each format's parameter space per matrix and
	// the database rows record the winning parameters (schema v2).
	labeler := NewLabeler(choice, cfg.Threads, cfg.Measure)
	db := &Database{}
	for i, e := range entries {
		m := e.Matrix()
		f := features.Extract(m)
		var lbl Label
		if cfg.SkipKernelSearch {
			lbl = labeler.Label(m)
			db.Append(e.Name, e.Domain, f, lbl)
		} else {
			var perMatrix map[matrix.Format]kernels.Params
			lbl, perMatrix = labeler.LabelParams(m, &f)
			db.AppendParams(e.Name, e.Domain, f, lbl, perMatrix)
		}
		res.Labels = append(res.Labels, lbl)
		if cfg.Progress != nil {
			cfg.Progress(i+1, len(entries))
		}
	}

	// Learning phase: everything after labeling is measurement-free and
	// shared with TrainFromDatabase.
	learned, err := TrainFromDatabase(db, choice, cfg)
	if err != nil {
		return nil, err
	}
	learned.Search = res.Search
	learned.ParamSearch = res.ParamSearch
	learned.Labels = res.Labels
	learned.Database = db
	if len(params) > 0 {
		learned.Model.Version = ModelSchemaVersion
		learned.Model.Params = map[string]kernels.Params{}
		for f, p := range params {
			learned.Model.Params[f.String()] = p
		}
	}
	return learned, nil
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// LoadModel reads a model written by Save and validates it. Both schema
// versions load: a v1 model simply has no parameter map, so every format
// runs with the zero (fixed-menu) parameters.
func LoadModel(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("autotune: load model: %w", err)
	}
	if m.Version > ModelSchemaVersion {
		return nil, fmt.Errorf("autotune: model schema version %d is newer than this build supports (%d)",
			m.Version, ModelSchemaVersion)
	}
	if m.Ruleset == nil {
		return nil, fmt.Errorf("autotune: model has no ruleset")
	}
	if len(m.Ruleset.ClassNames) != len(classNames()) {
		return nil, fmt.Errorf("autotune: model has %d classes, want %d",
			len(m.Ruleset.ClassNames), len(classNames()))
	}
	// The tuner evaluates the rules over the Table 2 feature vector: an
	// attribute past it would index out of range at the first tune.
	if len(m.Ruleset.AttrNames) != len(features.AttributeNames) {
		return nil, fmt.Errorf("autotune: model has %d attributes, want %d",
			len(m.Ruleset.AttrNames), len(features.AttributeNames))
	}
	if err := m.Ruleset.Validate(); err != nil {
		return nil, fmt.Errorf("autotune: %w", err)
	}
	if m.ConfidenceThreshold <= 0 || m.ConfidenceThreshold > 1 {
		return nil, fmt.Errorf("autotune: confidence threshold %g outside (0,1]", m.ConfidenceThreshold)
	}
	if m.MaxFill <= 0 {
		m.MaxFill = DefaultMaxFill
	}
	return &m, nil
}
