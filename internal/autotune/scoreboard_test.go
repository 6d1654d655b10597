package autotune

import (
	"maps"
	"math/rand"
	"testing"

	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// stubTable is a format's performance record table — one record per
// registered kernel — with the given rate per kernel name.
func stubTable(f matrix.Format, rate func(name string) float64) []PerfRecord {
	var table []PerfRecord
	for _, k := range kernels.NewLibrary[float64]().ForFormat(f) {
		table = append(table, PerfRecord{Kernel: k.Name, Strategies: k.Strategies, GFLOPS: rate(k.Name)})
	}
	return table
}

// TestScoreboardScoresCOOPartition: COO's partition is two strategy bits
// (parallel+nnzbalance) and neither exists alone, so coo_parallel has no
// one-less-strategy neighbour; it is scored against coo_basic and both bits
// move together. Before, they were never scored and the pick fell to the
// raw-GFLOPS tie-break.
func TestScoreboardScoresCOOPartition(t *testing.T) {
	rates := map[string]float64{"coo_basic": 1.0, "coo_unroll4": 1.2, "coo_parallel": 1.5, "coo_parallel_unroll4": 1.8}
	for _, c := range []struct {
		name          string
		parallel      float64
		wantPartition int
		wantBest      string
	}{
		{"faster", 1.5, +1, "coo_parallel_unroll4"},
		{"slower", 0.5, -1, "coo_unroll4"},
		{"indifferent", 1.005, 0, "coo_parallel_unroll4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rates["coo_parallel"] = c.parallel
			strat, kern, best := scoreTable(stubTable(matrix.FormatCOO, func(n string) float64 { return rates[n] }))
			for _, s := range []string{"parallel", "nnzbalance"} {
				if got, ok := strat[s]; got != c.wantPartition || ok != (c.wantPartition != 0) {
					t.Errorf("strategy %s scored %d (present %v), want %d", s, got, ok, c.wantPartition)
				}
			}
			if strat["unroll4"] != 2 { // coo_unroll4 over coo_basic, coo_parallel_unroll4 over coo_parallel
				t.Errorf("unroll4 scored %d, want 2", strat["unroll4"])
			}
			if want := 2*c.wantPartition + 2; kern["coo_parallel_unroll4"] != want {
				t.Errorf("coo_parallel_unroll4 scored %d, want %d", kern["coo_parallel_unroll4"], want)
			}
			if best != c.wantBest {
				t.Errorf("best = %s, want %s", best, c.wantBest)
			}
		})
	}
}

// scoreTableOneBitOnly is the scoreboard as it was before the nearest-subset
// rule: only one-less-strategy neighbours are compared.
func scoreTableOneBitOnly(table []PerfRecord) (strategyScores, kernelScores map[string]int, best string) {
	perf, name := map[kernels.Strategy]float64{}, map[kernels.Strategy]string{}
	for _, r := range table {
		perf[r.Strategies], name[r.Strategies] = r.GFLOPS, r.Kernel
	}
	scores := map[kernels.Strategy]int{}
	for combo, g := range perf {
		for _, sn := range kernels.StrategyNames {
			base, ok := perf[combo&^sn.S]
			switch {
			case combo&sn.S == 0 || !ok:
			case g-base > indifferenceGFLOPS:
				scores[sn.S]++
			case base-g > indifferenceGFLOPS:
				scores[sn.S]--
			}
		}
	}
	strategyScores, kernelScores = map[string]int{}, map[string]int{}
	for _, sn := range kernels.StrategyNames {
		if s, ok := scores[sn.S]; ok {
			strategyScores[sn.Name] = s
		}
	}
	bestScore, bestG := -1<<30, 0.0
	for combo := kernels.Strategy(0); combo < 1<<len(kernels.StrategyNames); combo++ {
		g, ok := perf[combo]
		if !ok {
			continue
		}
		score := 0
		for _, sn := range kernels.StrategyNames {
			if combo&sn.S != 0 {
				score += scores[sn.S]
			}
		}
		kernelScores[name[combo]] = score
		if score > bestScore || (score == bestScore && g > bestG) {
			best, bestScore, bestG = name[combo], score, g
		}
	}
	return strategyScores, kernelScores, best
}

// TestScoreboardUnchangedWhereNeighboursExist: every CSR, DIA and ELL kernel
// has a one-less-strategy neighbour, so on those families the scoreboard's
// outcome is what it was before COO's rule was added.
func TestScoreboardUnchangedWhereNeighboursExist(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range []matrix.Format{matrix.FormatCSR, matrix.FormatDIA, matrix.FormatELL} {
		for trial := 0; trial < 50; trial++ {
			// Rates on a coarse grid so ties and in-band pairs occur.
			table := stubTable(f, func(string) float64 { return 1 + float64(rng.Intn(40))*0.004 })
			strat, kern, best := scoreTable(table)
			wantStrat, wantKern, wantBest := scoreTableOneBitOnly(table)
			if !maps.Equal(strat, wantStrat) || !maps.Equal(kern, wantKern) || best != wantBest {
				t.Fatalf("%v table %v:\n got %v %v %s\nwant %v %v %s", f, table, strat, kern, best, wantStrat, wantKern, wantBest)
			}
		}
	}
}

// TestLabelerResolvesThroughTheOneResolver: a KernelChoice naming another
// format's kernel, or no registered kernel, labels with the format's default
// kernel — the basic body, partitioned — instead of running a mismatched one
// (which panics).
func TestLabelerResolvesThroughTheOneResolver(t *testing.T) {
	lib := kernels.NewLibrary[float64]()
	for _, name := range []string{"dia_basic", "no_such_kernel", ""} {
		if k := resolveKernel(lib, name, matrix.FormatCSR); k.Name != "csr_parallel_nnz" {
			t.Errorf("resolveKernel(%q, CSR) = %s, want csr_parallel_nnz", name, k.Name)
		}
	}
	for _, f := range matrix.Formats {
		if k := resolveKernel(lib, "", f); k == nil || k.Format != f || k.Strategies&kernels.StratParallel == 0 {
			t.Errorf("%v's default kernel %+v is not a partitioned %v kernel", f, k, f)
		}
	}
	if k := resolveKernel(lib, "csr_unroll4", matrix.FormatCSR); k.Name != "csr_unroll4" {
		t.Errorf("resolveKernel(csr_unroll4, CSR) = %s", k.Name)
	}
	l := NewLabeler(KernelChoice{matrix.FormatCSR: "dia_basic", matrix.FormatCOO: "no_such_kernel"}, 1, fastMeasure)
	m := gen.MultiDiagonal[float64](500, []int{-1, 0, 1}, rand.New(rand.NewSource(1)))
	if lbl := l.Label(m); lbl.GFLOPS[matrix.FormatCSR] <= 0 || lbl.GFLOPS[matrix.FormatCOO] <= 0 {
		t.Errorf("label with unusable choices measured %v", lbl.GFLOPS)
	}
}
