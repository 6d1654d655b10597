package autotune

import (
	"cmp"
	"math/rand"
	"slices"

	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// indifferenceGFLOPS is the paper's 0.01 GFLOPS band: two implementations
// closer than this are considered equal and the strategy difference between
// them is neglected.
const indifferenceGFLOPS = 0.01

// PerfRecord is one row of the performance record table: a kernel and its
// measured GFLOPS on the probe matrix.
type PerfRecord struct {
	Kernel     string
	Strategies kernels.Strategy
	GFLOPS     float64
}

// SearchResult reports the scoreboard search for one format. Best is the
// highest-scoring partitioned instance (partitionedBest).
type SearchResult struct {
	Format         matrix.Format
	Table          []PerfRecord
	StrategyScores map[string]int
	KernelScores   map[string]int
	Best           string
}

// KernelChoice maps each format to its chosen kernel name.
type KernelChoice map[matrix.Format]string

// SearchConfig controls the off-line kernel search.
type SearchConfig struct {
	// Threads is the architecture configuration under search (≤0: GOMAXPROCS).
	Threads int
	// ProbeScale scales the probe matrix sizes in (0, 1]; default 1.
	ProbeScale float64
	// Measure controls individual timings.
	Measure MeasureOptions
	// Seed feeds the probe generators.
	Seed int64
}

// probeMatrix builds the format's characteristic probe: the kernel search
// evaluates each format family on a matrix that format is meant for, the way
// the paper searches per-format implementations on the target architecture.
func probeMatrix(f matrix.Format, scale float64, seed int64) *matrix.CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	dim := func(n int) int {
		d := int(float64(n) * scale)
		if d < 64 {
			d = 64
		}
		return d
	}
	switch f {
	case matrix.FormatDIA:
		k := dim(500)
		return gen.Laplacian2D5pt[float64](k, k)
	case matrix.FormatELL:
		return gen.ConstantDegree[float64](dim(100000), 4, rng)
	case matrix.FormatCOO:
		return gen.RoadNetwork[float64](dim(150000), rng)
	default:
		return gen.RandomUniform[float64](dim(30000), dim(30000), 40, rng)
	}
}

// SearchKernels runs the paper's two-step search: measure every registered
// implementation into a performance record table, then score each
// optimization strategy on a scoreboard by comparing implementations that
// differ in exactly that strategy. Each implementation's score is the sum of
// its strategies' scores; the highest-scoring implementation per format wins
// (ties break on measured GFLOPS).
func SearchKernels(cfg SearchConfig) (KernelChoice, []SearchResult) {
	cfg.Measure = cfg.Measure.withDefaults()
	if cfg.ProbeScale <= 0 || cfg.ProbeScale > 1 {
		cfg.ProbeScale = 1
	}
	lib := kernels.NewLibrary[float64]()
	choice := KernelChoice{}
	var results []SearchResult
	for _, f := range matrix.Formats {
		res := searchFormat(lib, f, cfg)
		results = append(results, res)
		choice[f] = res.Best
	}
	return choice, results
}

func searchFormat(lib *kernels.Library[float64], f matrix.Format, cfg SearchConfig) SearchResult {
	probe := probeMatrix(f, cfg.ProbeScale, cfg.Seed+int64(f))
	mat, err := kernels.Convert(probe, f, 0)
	if err != nil {
		// Probes are chosen to fit their format; unreachable.
		panic(err)
	}
	x := make([]float64, probe.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	y := make([]float64, probe.Rows)

	// Step 1: the performance record table, over the zero-Params instances:
	// one kernel per strategy set. The parameter walk (SearchMatrixParams)
	// covers the rest.
	res := SearchResult{Format: f}
	for _, k := range lib.ForFormat(f) {
		if !k.Params.IsZero() {
			continue
		}
		sec := MeasureSecPerOp(func() { k.Run(mat, x, y, cfg.Threads) }, cfg.Measure)
		res.Table = append(res.Table, PerfRecord{Kernel: k.Name, Strategies: k.Strategies, GFLOPS: GFLOPS(kernels.FLOPs(probe.NNZ()), sec)})
	}
	res.StrategyScores, res.KernelScores, _ = scoreTable(res.Table)
	res.Best = partitionedBest(res.Table, res.KernelScores)
	return res
}

// partitionedBest is the scoreboard's pick among the partitioned instances,
// the ones a model class binds at any thread count (they run the unsplit
// arithmetic at one thread): the highest kernel score, ties on GFLOPS.
func partitionedBest(table []PerfRecord, kernelScores map[string]int) string {
	best, bestScore, bestG := "", 0, 0.0
	for _, r := range table {
		if r.Strategies&kernels.StratParallel == 0 {
			continue
		}
		if s := kernelScores[r.Kernel]; best == "" || s > bestScore || (s == bestScore && r.GFLOPS > bestG) {
			best, bestScore, bestG = r.Kernel, s, r.GFLOPS
		}
	}
	return best
}

// scoreTable is step 2 of the search, the scoreboard, as a pure function of
// the performance record table (one record per strategy set). Every
// implementation is compared against the implementations having exactly one
// less strategy; the differing strategy is marked +1 on a gain, -1 on a loss,
// 0 within the paper's 0.01 GFLOPS indifference band. An implementation with
// no such neighbour at all (coo_parallel: COO's partition is two bits and
// neither exists alone) is compared against its nearest registered strict
// subset instead, and the differing strategies move together. An
// implementation's score is the sum of its strategies' scores; the best wins,
// ties break on raw GFLOPS.
func scoreTable(table []PerfRecord) (strategyScores, kernelScores map[string]int, best string) {
	ranked := slices.Clone(table)
	slices.SortFunc(ranked, func(a, b PerfRecord) int { return cmp.Compare(a.Strategies, b.Strategies) })
	scores := map[kernels.Strategy]int{}
	mark := func(bits kernels.Strategy, g, base float64) {
		for _, sn := range kernels.StrategyNames {
			switch {
			case bits&sn.S == 0:
			case g-base > indifferenceGFLOPS:
				scores[sn.S]++
			case base-g > indifferenceGFLOPS:
				scores[sn.S]--
			}
		}
	}
	for _, r := range ranked {
		var nearest *PerfRecord // the strict subset with the most strategies
		neighbour := false
		for i := range ranked {
			base := &ranked[i]
			switch diff := r.Strategies &^ base.Strategies; {
			case diff == 0 || base.Strategies&^r.Strategies != 0: // not a strict subset
			case diff.Count() == 1:
				mark(diff, r.GFLOPS, base.GFLOPS)
				neighbour = true
			case nearest == nil || base.Strategies.Count() > nearest.Strategies.Count():
				nearest = base
			}
		}
		if nearest != nil && !neighbour {
			mark(r.Strategies&^nearest.Strategies, r.GFLOPS, nearest.GFLOPS)
		}
	}
	strategyScores, kernelScores = map[string]int{}, map[string]int{}
	for _, sn := range kernels.StrategyNames {
		if s, ok := scores[sn.S]; ok {
			strategyScores[sn.Name] = s
		}
	}
	bestScore, bestG := -1<<30, 0.0
	for _, r := range ranked {
		score := 0
		for _, sn := range kernels.StrategyNames {
			if r.Strategies&sn.S != 0 {
				score += scores[sn.S]
			}
		}
		kernelScores[r.Kernel] = score
		if score > bestScore || (score == bestScore && r.GFLOPS > bestG) {
			best, bestScore, bestG = r.Kernel, score, r.GFLOPS
		}
	}
	return strategyScores, kernelScores, best
}

// ParamChoice maps each format to its searched kernel parameters. A missing
// or zero entry means a zero-Params kernel on the default conversion won.
type ParamChoice map[matrix.Format]kernels.Params

// ParamSearchResult reports the parameter walk for one format on one matrix.
type ParamSearchResult struct {
	Format matrix.Format
	// Kernel and Params describe the overall winner ("" when no candidate was
	// feasible); GFLOPS is its measured rate.
	Kernel string
	Params kernels.Params
	GFLOPS float64
	// FixedKernel and FixedGFLOPS describe the best fixed-menu candidate
	// (zero-parameter kernel on the default conversion) over the same
	// measurements, the baseline the parameter search is judged against.
	FixedKernel string
	FixedGFLOPS float64
	// Pruned lists the candidates the feature guards skipped, for search logs.
	Pruned []string
}

// paramConvCandidates enumerates the conversion-level parameter candidates
// for a format: the zero Params (the format's default conversion) first, then
// for HYB every searched width cut. (The whole DIA walk is skipped upstream
// when the diagonal tally is hypersparse.)
func paramConvCandidates(f matrix.Format) []kernels.Params {
	out := []kernels.Params{{}}
	if f == matrix.FormatHYB {
		for _, cut := range kernels.HybCuts {
			out = append(out, kernels.Params{HybCut: cut})
		}
	}
	return out
}

// SearchMatrixParams walks the tunable parameter space of one format on one
// matrix: every conversion-level candidate (ELL→HYB width cut) crossed with
// every registered kernel instance of the format (unroll depths ride in as
// parameterized registrations). A feature guard prunes the walk before
// anything is converted or timed — a hypersparse diagonal tally skips DIA
// entirely — so the search stays within the same measurement budget class as
// the scoreboard. ft may be nil to disable feature pruning.
func SearchMatrixParams(lib *kernels.Library[float64], m *matrix.CSR[float64], ft *features.Features, f matrix.Format, threads int, measure MeasureOptions) ParamSearchResult {
	measure = measure.withDefaults()
	res := ParamSearchResult{Format: f}
	if f == matrix.FormatDIA && ft != nil && !feasible(f, ft, DefaultMaxFill) {
		res.Pruned = append(res.Pruned, "dia: diagonal density below threshold")
		return res
	}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	y := make([]float64, m.Rows)
	flops := kernels.FLOPs(m.NNZ())
	for _, cp := range paramConvCandidates(f) {
		mat, err := kernels.ConvertFrom(m, nil, f, DefaultMaxFill, cp)
		if err != nil {
			continue
		}
		for _, k := range lib.ForFormat(f) {
			sec := MeasureSecPerOp(func() { k.Run(mat, x, y, threads) }, measure)
			g := GFLOPS(flops, sec)
			if g > res.GFLOPS {
				p := cp
				if k.Params.Unroll != 0 {
					p.Unroll = k.Params.Unroll
				}
				res.GFLOPS, res.Params, res.Kernel = g, p, k.Name
			}
			if cp.IsZero() && k.Params.IsZero() && g > res.FixedGFLOPS {
				res.FixedGFLOPS, res.FixedKernel = g, k.Name
			}
		}
	}
	return res
}

// SearchKernelsParams runs the scoreboard kernel search and then walks each
// format's tunable parameter space on the same probe matrix. The parameter
// walk overrides the scoreboard's per-format choice only when a partitioned,
// parameterized instance beats the best fixed-menu candidate by more than the
// indifference band; the winning parameters feed the model class.
func SearchKernelsParams(cfg SearchConfig) (KernelChoice, ParamChoice, []SearchResult, []ParamSearchResult) {
	cfg.Measure = cfg.Measure.withDefaults()
	if cfg.ProbeScale <= 0 || cfg.ProbeScale > 1 {
		cfg.ProbeScale = 1
	}
	lib := kernels.NewLibrary[float64]()
	choice := KernelChoice{}
	params := ParamChoice{}
	var results []SearchResult
	var walks []ParamSearchResult
	for _, f := range matrix.Formats {
		res := searchFormat(lib, f, cfg)
		results = append(results, res)
		choice[f] = res.Best

		probe := probeMatrix(f, cfg.ProbeScale, cfg.Seed+int64(f))
		ft := features.Extract(probe)
		walk := SearchMatrixParams(lib, probe, &ft, f, cfg.Threads, cfg.Measure)
		walks = append(walks, walk)
		gainGFLOPS := walk.GFLOPS - walk.FixedGFLOPS
		if k := lib.Lookup(walk.Kernel); k != nil && k.Strategies&kernels.StratParallel != 0 &&
			!walk.Params.IsZero() && gainGFLOPS > indifferenceGFLOPS {
			choice[f] = walk.Kernel
			params[f] = walk.Params
		}
	}
	return choice, params, results, walks
}
