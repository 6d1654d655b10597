package autotune

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"

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

// ModelSchemaVersion is the model schema this build reads and writes: one
// class per trained thread count.
const ModelSchemaVersion = 2

// ModelClass is what the off-line stage learned at one thread count: the
// tailored ruleset and the kernel each format was labeled with — the one a
// tuner of the class binds. The kernels are partitioned instances, which run
// the unsplit arithmetic at one thread. A "params" key, written while kernels
// carried template parameters, loads and is ignored.
type ModelClass struct {
	Threads int               `json:"threads"`
	Kernels map[string]string `json:"kernels"` // format name -> kernel name
	Ruleset *mining.Ruleset   `json:"ruleset"`
}

// Choice is the class's kernel table keyed by format, the form NewLabeler
// takes; an entry under a name that is not a format is skipped.
func (c *ModelClass) Choice() KernelChoice {
	out := KernelChoice{}
	for name, kernel := range c.Kernels {
		if f, err := matrix.ParseFormat(name); err == nil {
			out[f] = kernel
		}
	}
	return out
}

// Model is the serialisable artifact of the off-line stage: one ModelClass
// per trained thread count and the runtime thresholds they share. Generated
// once per architecture and reused for every input matrix; a tuner runs the
// class Class picks for its own thread count.
type Model struct {
	Version             int          `json:"version"`
	ConfidenceThreshold float64      `json:"confidence_threshold"`
	MaxFill             float64      `json:"max_fill"`
	Classes             []ModelClass `json:"classes"` // ascending Threads
	// Ruleset is the last class's ruleset, the one a tuner at the highest
	// trained thread count runs; NewModel and LoadModel set it.
	//
	// Deprecated: read Class(threads).Ruleset. Kept only because benchmark/
	// replays Model.Ruleset in its traces.
	Ruleset *mining.Ruleset `json:"-"`
}

// NewModel assembles a model from at least one class.
func NewModel(threshold, maxFill float64, classes ...ModelClass) *Model {
	m := &Model{Version: ModelSchemaVersion, ConfidenceThreshold: threshold, MaxFill: maxFill, Classes: classes}
	m.index()
	return m
}

// index sorts the classes by thread count and sets the deprecated Ruleset.
func (m *Model) index() {
	slices.SortFunc(m.Classes, func(a, b ModelClass) int { return cmp.Compare(a.Threads, b.Threads) })
	m.Ruleset = m.Classes[len(m.Classes)-1].Ruleset
}

// Class returns the class a tuner at the given thread count runs: the one
// with the largest Threads not above it, or the lowest when all are above.
func (m *Model) Class(threads int) *ModelClass {
	c := &m.Classes[0]
	for i := range m.Classes {
		if m.Classes[i].Threads <= threads {
			c = &m.Classes[i]
		}
	}
	return c
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
	// Threads lists the architecture configurations to train, one model
	// class each, capped to GOMAXPROCS; every matrix is labeled at each
	// (empty: GOMAXPROCS).
	Threads []int
	// Measure controls each labeling measurement.
	Measure MeasureOptions
	// SkipKernelSearch labels every class with labelKernels instead of
	// running the scoreboard search first.
	SkipKernelSearch bool
	// ProbeScale scales the kernel-search probe matrices.
	ProbeScale float64
	// Seed feeds the kernel-search probes.
	Seed int64
	// Progress, when non-nil, receives labeling progress.
	Progress func(done, total int)
}

// labelKernels is the kernel per format training labels with when it skips
// the scoreboard search: the partitioned bodies the single-vector kernels
// were tuned for, which the search settles on at one and two threads on a
// 2-vCPU x86 box.
var labelKernels = KernelChoice{
	matrix.FormatCSR: "csr_parallel_nnz_unroll4",
	matrix.FormatCOO: "coo_parallel_unroll4",
	matrix.FormatDIA: "dia_blocked_parallel",
	matrix.FormatELL: "ell_width_parallel",
}

// columnPassWeight scales the gain ratio of the three attributes only the
// column pass fills in (Ndiags, NTdiags_ratio, ER_DIA) when the tree picks a
// split: a ruleset that decides on what the row pass bounds lets a tune skip
// the O(nnz) pass (tuning.decided), so a diagonal split has to be that much
// more informative to be taken.
const columnPassWeight = 0.3

// DefaultTree is the tree configuration training induces with: the
// column-pass attributes weighted by columnPassWeight.
func DefaultTree() mining.TreeConfig {
	w := make([]float64, len(features.AttributeNames))
	for i, name := range features.AttributeNames {
		w[i] = 1
		switch name {
		case "Ndiags", "NTdiags_ratio", "ER_DIA":
			w[i] = columnPassWeight
		}
	}
	return mining.TreeConfig{AttrWeights: w}
}

// tailorLoss is the training accuracy rule tailoring may give up (the
// paper's 1%).
const tailorLoss = 0.01

func (cfg TrainConfig) withDefaults() TrainConfig {
	procs := runtime.GOMAXPROCS(0)
	threads := []int{procs}
	if len(cfg.Threads) > 0 {
		threads = make([]int, len(cfg.Threads))
		for i, n := range cfg.Threads {
			threads[i] = min(max(n, 1), procs)
		}
		slices.Sort(threads)
		threads = slices.Compact(threads)
	}
	cfg.Threads = threads
	return cfg
}

// TrainResult is the trained model plus the artifacts of the off-line stage.
type TrainResult struct {
	Model    *Model
	Database *Database
	// Classes holds one entry per trained thread count, ascending, like the
	// model's.
	Classes []ClassResult
}

// ClassResult is the off-line stage's record of one thread class.
type ClassResult struct {
	Threads       int
	Search        []SearchResult
	Labels        []Label
	Dataset       *mining.Dataset
	FullRuleset   *mining.Ruleset
	FullRules     int
	TailoredRules int
	TrainAccuracy float64
}

// Train runs the complete off-line stage on the given corpus entries, once
// per thread class: scoreboard kernel search, exhaustive labeling, feature
// extraction, tree induction, rule extraction and tailoring. Each matrix is
// built and its features extracted once, then labeled at every class.
func Train(entries []*corpus.Entry, cfg TrainConfig) (*TrainResult, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("autotune: empty training set")
	}
	cfg = cfg.withDefaults()

	type class struct {
		labeler *Labeler
		search  []SearchResult
		labels  []Label
	}
	classes := make([]*class, len(cfg.Threads))
	for i, threads := range cfg.Threads {
		c := &class{}
		choice := labelKernels
		if !cfg.SkipKernelSearch {
			choice, c.search = SearchKernels(SearchConfig{
				Threads:    threads,
				ProbeScale: cfg.ProbeScale,
				Measure:    cfg.Measure,
				Seed:       cfg.Seed,
			})
		}
		c.labeler = NewLabeler(choice, threads, cfg.Measure)
		defer c.labeler.Close()
		classes[i] = c
	}

	// Labeling phase: measure every training matrix into the feature
	// database (the paper's Figure 4 "Feature Database"), one row per matrix
	// and class, each format timed on the kernel its class binds.
	db := &Database{}
	for i, e := range entries {
		m := e.Matrix()
		f := features.Extract(m)
		for _, c := range classes {
			lbl := c.labeler.Label(m)
			db.Append(e.Name, e.Domain, f, lbl)
			c.labels = append(c.labels, lbl)
		}
		if cfg.Progress != nil {
			cfg.Progress(i+1, len(entries))
		}
	}

	// Learning phase: everything after labeling is measurement-free and
	// shared with TrainFromDatabase. Each class binds what its labeler bound.
	learned, err := TrainFromDatabase(db)
	if err != nil {
		return nil, err
	}
	learned.Database = db
	for i, c := range classes {
		lc, mc := &learned.Classes[i], &learned.Model.Classes[i]
		lc.Search, lc.Labels = c.search, c.labels
		mc.Kernels = c.labeler.class.Kernels
	}
	return learned, nil
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// LoadModel reads a model written by Save and validates it: the current
// schema, at least one class, distinct positive thread counts, kernels each
// registered for the basic format they are named for, and rulesets over the
// four basic formats and the Table 2 attributes.
func LoadModel(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("autotune: load model: %w", err)
	}
	if m.Version != ModelSchemaVersion {
		return nil, fmt.Errorf("autotune: model schema version %d; this build reads version %d (retrain with smat-train)",
			m.Version, ModelSchemaVersion)
	}
	if len(m.Classes) == 0 {
		return nil, fmt.Errorf("autotune: model has no thread class")
	}
	seen := map[int]bool{}
	lib := kernels.NewLibrary[float64]()
	for i := range m.Classes {
		c := &m.Classes[i]
		if c.Threads < 1 || seen[c.Threads] {
			return nil, fmt.Errorf("autotune: model class %d: thread count %d is not positive or repeats", i, c.Threads)
		}
		seen[c.Threads] = true
		if err := validRuleset(c.Ruleset); err != nil {
			return nil, fmt.Errorf("autotune: model class %d (%d threads): %w", i, c.Threads, err)
		}
		if err := validKernels(c.Kernels, lib); err != nil {
			return nil, fmt.Errorf("autotune: model class %d (%d threads): %w; retrain with smat-train", i, c.Threads, err)
		}
	}
	if m.ConfidenceThreshold <= 0 || m.ConfidenceThreshold > 1 {
		return nil, fmt.Errorf("autotune: confidence threshold %g outside (0,1]", m.ConfidenceThreshold)
	}
	if m.MaxFill <= 0 {
		m.MaxFill = DefaultMaxFill
	}
	m.index()
	return &m, nil
}

// validKernels checks that every kernel a class names is one the tuner can
// bind for that format: a registered single-vector kernel of it. A format the
// class names nothing for binds its default kernel (resolveKernel).
func validKernels(names map[string]string, lib *kernels.Library[float64]) error {
	for key, name := range names {
		i := slices.IndexFunc(matrix.Formats[:], func(f matrix.Format) bool { return f.String() == key })
		if i < 0 {
			return fmt.Errorf("kernel %q is named for %q, which is not a basic format", name, key)
		}
		if k := lib.Lookup(name); k == nil || k.Format != matrix.Formats[i] {
			return fmt.Errorf("format %s names kernel %q, which is not a registered %s kernel", key, name, key)
		}
	}
	return nil
}

// validRuleset checks what the tuner relies on of a loaded ruleset.
func validRuleset(rs *mining.Ruleset) error {
	if rs == nil {
		return fmt.Errorf("no ruleset")
	}
	if len(rs.ClassNames) != len(classNames()) {
		return fmt.Errorf("%d classes, want %d", len(rs.ClassNames), len(classNames()))
	}
	// The tuner evaluates the rules over the Table 2 feature vector: an
	// attribute past it would index out of range at the first tune.
	if len(rs.AttrNames) != len(features.AttributeNames) {
		return fmt.Errorf("%d attributes, want %d", len(rs.AttrNames), len(features.AttributeNames))
	}
	return rs.Validate()
}
