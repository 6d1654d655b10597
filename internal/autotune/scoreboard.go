package autotune

import (
	"cmp"
	"math/rand"
	"slices"

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

	// Step 1: the performance record table, one kernel per strategy set.
	res := SearchResult{Format: f}
	for _, k := range lib.ForFormat(f) {
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
