package autotune_test

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"smat"
	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// equivalenceInputs spans what the tuner meets: a corpus sample across every
// application domain, and the generator shapes the benchmark's workloads are
// built from, two sizes each.
func equivalenceInputs() map[string]*matrix.CSR[float64] {
	out := map[string]*matrix.CSR[float64]{}
	for _, e := range corpus.New(0.2, 77).Sample(25) {
		out[e.Name] = e.Matrix()
	}
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	for _, n := range []int{600, 5000} {
		size := map[int]string{600: "/small", 5000: "/large"}[n]
		out["band5"+size] = gen.MultiDiagonal[float64](n, []int{-2, -1, 0, 1, 2}, rng(1))
		out["lap2d"+size] = gen.Laplacian2D5pt[float64](n/50, 50)
		out["deg3"+size] = gen.ConstantDegree[float64](n, 3, rng(2))
		out["incidence4"+size] = gen.BipartiteIncidence[float64](n, n/5, 4, rng(3))
		out["rand20"+size] = gen.RandomUniform[float64](n/4, n/4, 20, rng(4))
		out["road"+size] = gen.RoadNetwork[float64](n, rng(5))
		out["plaw4"+size] = gen.PreferentialAttachment[float64](n, 4, rng(6))
	}
	return out
}

// TestTwoPhaseExtractDecidesAsTheFullScan: a tune whose extract stage may stop
// after the row pass and one forced through both passes (TuneFullScan) reach
// the same decision — the same path (predicted or measured), and for a
// prediction the same format, confidence and kernel; for a measurement, whose
// winner is a timing, the same contenders — on every input, under the shipped
// model at each of its two classes (one thread and two), the heuristic one and a
// freshly trained one. Where the column pass was skipped the features are the
// full ones less the three it would have filled in, and the decision is not
// DIA's — unless the row pass's bounds pin Ndiags (the band is full,
// features.Features.BandFull) and the DIA operator served from that proof
// holds the full scan's offsets and data bit for bit. No decision cache: each
// tune leads.
func TestTwoPhaseExtractDecidesAsTheFullScan(t *testing.T) {
	f, err := os.Open("../../model.json")
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := autotune.LoadModel(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	trained, err := autotune.Train(corpus.New(0.02, 1234).Sample(60), autotune.TrainConfig{
		Threads: []int{2}, Seed: 1, SkipKernelSearch: true,
		Measure: autotune.MeasureOptions{MinTime: 100 * time.Microsecond, Trials: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := equivalenceInputs()
	for _, c := range []struct {
		name    string
		model   *autotune.Model
		threads int
	}{
		{"shipped/1", shipped, 1},
		{"shipped/2", shipped, 2},
		{"heuristic", smat.HeuristicModel(), 2},
		{"trained", trained.Model, 2},
	} {
		tuner := autotune.New[float64](c.model, autotune.Config{Threads: c.threads, CacheSize: -1})
		skipped := map[matrix.Format]int{}
		for name, m := range inputs {
			what := c.name + "/" + name
			gotOp, got, err := tuner.TuneOpts(m, autotune.TuneOptions{})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			wantOp, want, err := tuner.TuneFullScan(m, autotune.TuneOptions{})
			if err != nil {
				t.Fatalf("%s: full scan: %v", what, err)
			}
			if want.ColumnPassSkipped || want.Features != features.Extract(m) {
				t.Fatalf("%s: the reference tune did not scan in full: %+v", what, want.Features)
			}
			if got.UsedFallback != want.UsedFallback || got.PredictedOK != want.PredictedOK {
				t.Errorf("%s: fallback %v predicted %v, full scan: %v %v", what, got.UsedFallback, got.PredictedOK, want.UsedFallback, want.PredictedOK)
				continue
			}
			if got.UsedFallback {
				same := len(got.Measured) == len(want.Measured)
				for f := range want.Measured {
					_, ok := got.Measured[f]
					same = same && ok
				}
				if !same {
					t.Errorf("%s: measured %v, full scan measured %v", what, got.Measured, want.Measured)
				}
			} else if got.Chosen != want.Chosen || got.Confidence != want.Confidence || got.Kernel != want.Kernel {
				t.Errorf("%s: chose %v via %s at confidence %v, full scan: %v via %s at %v",
					what, got.Chosen, got.Kernel, got.Confidence, want.Chosen, want.Kernel, want.Confidence)
			}
			if !got.ColumnPassSkipped {
				if got.Features != want.Features {
					t.Errorf("%s: features %+v, full scan: %+v", what, got.Features, want.Features)
				}
				continue
			}
			skipped[got.Chosen]++
			less := want.Features
			less.Ndiags, less.NTdiagsRatio, less.ERDIA = 0, 0, 0
			if got.Features != less || got.UsedFallback || got.Chosen == matrix.FormatDIA && !sameDIA(m, gotOp, wantOp) {
				t.Errorf("%s: column pass skipped on a %v decision (fallback %v) with features %+v, full scan: %+v",
					what, got.Chosen, got.UsedFallback, got.Features, want.Features)
			}
		}
		n := 0
		for _, k := range skipped {
			n += k
		}
		t.Logf("%s: column pass skipped on %d of %d inputs %v", c.name, n, len(inputs), skipped)
		if c.model == shipped && (n < len(inputs)/4 || n == len(inputs)) {
			t.Errorf("%s: column pass skipped on %d of %d inputs: the comparison is one-sided", c.name, n, len(inputs))
		}
		if st := tuner.Stats(); st.ColumnPassesSkipped != uint64(n) {
			t.Errorf("%s: Stats counts %d skipped column passes, the decisions %d", c.name, st.ColumnPassesSkipped, n)
		}
		tuner.Close()
	}
}

// sameDIA reports that a DIA operator built without the column pass may have
// skipped it: the row pass's bounds on m pin Ndiags, and got serves the very
// offsets and data want, converted after the full scan, does.
func sameDIA(m *matrix.CSR[float64], got, want *autotune.Operator[float64]) bool {
	s := matrix.ScanRows(m)
	ft := features.FromStructure(s)
	lo, hi := ft.DiagBounds(s.Band())
	g, w := got.ServedMat().DIA, want.ServedMat().DIA
	if lo.Ndiags != hi.Ndiags || g == nil || w == nil || !slices.Equal(g.Offsets, w.Offsets) || len(g.Data) != len(w.Data) {
		return false
	}
	for i := range g.Data {
		if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
			return false
		}
	}
	return true
}

// TestFillGuardRejectionRunsTheColumnPass: a confident ELL pick the row pass
// decided, whose conversion the fill guard then rejects, falls to the measuring
// selector like any rejected pick — and that selector, which reads every
// feature, gets the full ones: the column pass runs then, on extract's clock,
// and the structure index keeps the full record. The two guards are the same
// inequality, so the case is a rounding one: a fill limit of exactly
// 1/ER_ELL passes the feature test (1/ER_ELL ≤ limit) and fails the
// conversion's (stored > limit·nnz) when limit·nnz rounds below stored.
func TestFillGuardRejectionRunsTheColumnPass(t *testing.T) {
	// Three rows of 9, 3 and 3 entries: ELL stores 27 slots for 15.
	var ts []matrix.Triple[float64]
	for r, deg := range []int{9, 3, 3} {
		for k := 0; k < deg; k++ {
			ts = append(ts, matrix.Triple[float64]{Row: r, Col: 2*k + r, Val: float64(k + 1)})
		}
	}
	m, err := matrix.FromTriples(3, 24, ts)
	if err != nil {
		t.Fatal(err)
	}
	full := features.Extract(m)
	model := autotune.ModelAlways(matrix.FormatELL, 0.99)
	model.Classes[0].Ruleset.Rules = append(model.Classes[0].Ruleset.Rules, mining.Rule{Class: int(matrix.FormatCOO), Confidence: 0.5})
	model.MaxFill = 1 / full.ERELL
	if _, err := m.ToELL(model.MaxFill); err == nil {
		t.Fatalf("premise gone: ELL converts under a fill limit of 1/ER_ELL = %v", model.MaxFill)
	}

	tuner := autotune.New[float64](model, autotune.Config{Threads: 2})
	defer tuner.Close()
	sig, err := m.Sign()
	if err != nil {
		t.Fatal(err)
	}
	op, d, err := tuner.TuneOpts(m, autotune.TuneOptions{Pattern: sig})
	if err != nil {
		t.Fatal(err)
	}
	product(t, op, m, "rejected ELL pick")
	if !d.UsedFallback || d.ColumnPassSkipped || d.Features != full || d.FeatureSec <= 0 {
		t.Errorf("fallback %v, column pass skipped %v, features %+v (scan: %+v), extract %gs",
			d.UsedFallback, d.ColumnPassSkipped, d.Features, full, d.FeatureSec)
	}
	if _, ok := d.Measured[matrix.FormatCOO]; !ok || len(d.Measured) != 2 {
		t.Errorf("measured %v, want tuned CSR and COO, the matched group ELL's rejection left open", d.Measured)
	}
	if st := tuner.Stats(); st.ColumnPassesSkipped != 0 {
		t.Errorf("%d column passes counted as skipped", st.ColumnPassesSkipped)
	}
	// The pattern is remembered in full: the next tune recalls every feature.
	if _, d, err = tuner.TuneOpts(m, autotune.TuneOptions{Pattern: sig}); err != nil || !d.StructureHit || d.ColumnPassSkipped || d.Features != full {
		t.Errorf("second tune: structure hit %v, column pass skipped %v, features %+v, err %v", d.StructureHit, d.ColumnPassSkipped, d.Features, err)
	}
}
