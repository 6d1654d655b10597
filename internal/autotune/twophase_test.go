package autotune_test

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// workloadInputs are the structures the benchmark's workloads tune: the
// cold-tune roster (every 13th entry of the synthetic collection its fixed
// seed composes, 5 000 to 200 000 nonzeros), the serve templates, the steady
// inputs at scale 0.2 and the CG/AMG problems — generated as the workloads
// generate them, the random ones under one fixed seed.
func workloadInputs() map[string]*matrix.CSR[float64] {
	out := map[string]*matrix.CSR[float64]{}
	for _, e := range corpus.New(1, 20260928).Sample(13) {
		if m := e.Matrix(); m.NNZ() >= 5e3 && m.NNZ() <= 2e5 {
			out["cold/"+e.Name] = m
		}
	}
	band := func(k int) []int {
		var offs []int
		for d := -k; d <= k; d++ {
			offs = append(offs, d)
		}
		return offs
	}
	type spec struct {
		name  string
		build func(rng *rand.Rand) *matrix.CSR[float64]
	}
	s := func(n int) int { return int(float64(n) * 0.2) }
	c := func(n int) int { return int(float64(n) * math.Cbrt(0.2)) }
	for i, sp := range []spec{
		{"serve/dia_band5_small", func(rng *rand.Rand) *matrix.CSR[float64] { return gen.MultiDiagonal[float64](1400, band(2), rng) }},
		{"serve/dia_lap2d_large", func(*rand.Rand) *matrix.CSR[float64] { return gen.Laplacian2D5pt[float64](100, 100) }},
		{"serve/ell_deg3_small", func(rng *rand.Rand) *matrix.CSR[float64] { return gen.ConstantDegree[float64](2400, 3, rng) }},
		{"serve/ell_incid4_large", func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.BipartiteIncidence[float64](14000, 14000/5, 4, rng)
		}},
		{"serve/csr_rand20_small", func(rng *rand.Rand) *matrix.CSR[float64] { return gen.RandomUniform[float64](400, 400, 20, rng) }},
		{"serve/csr_rand60_large", func(rng *rand.Rand) *matrix.CSR[float64] { return gen.RandomUniform[float64](1000, 1000, 60, rng) }},
		{"serve/coo_road_small", func(rng *rand.Rand) *matrix.CSR[float64] { return gen.RoadNetwork[float64](2200, rng) }},
		{"serve/coo_plaw_large", func(rng *rand.Rand) *matrix.CSR[float64] { return gen.PreferentialAttachment[float64](6000, 4, rng) }},
		{"steady/dia_band35", func(rng *rand.Rand) *matrix.CSR[float64] { return gen.MultiDiagonal[float64](s(40000), band(17), rng) }},
		{"steady/dia_7pt", func(*rand.Rand) *matrix.CSR[float64] { return gen.Laplacian3D7pt[float64](c(56), c(56), c(56)) }},
		{"steady/ell_deg3", func(rng *rand.Rand) *matrix.CSR[float64] { return gen.ConstantDegree[float64](s(400000), 3, rng) }},
		{"steady/ell_incid4", func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.BipartiteIncidence[float64](s(300000), s(50000), 4, rng)
		}},
		{"steady/csr_rand90", func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.RandomUniform[float64](s(14000), s(14000), 90, rng)
		}},
		{"steady/csr_rand150", func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.RandomUniform[float64](s(9000), s(9000), 150, rng)
		}},
		{"steady/coo_road", func(rng *rand.Rand) *matrix.CSR[float64] { return gen.RoadNetwork[float64](s(300000), rng) }},
		{"steady/coo_plaw", func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.PreferentialAttachment[float64](s(120000), 4, rng)
		}},
		{"cg/lap2d5", func(*rand.Rand) *matrix.CSR[float64] { return gen.Laplacian2D5pt[float64](320, 320) }},
		{"cg/lap3d7", func(*rand.Rand) *matrix.CSR[float64] { return gen.Laplacian3D7pt[float64](56, 56, 56) }},
		{"cg/lap2d9", func(*rand.Rand) *matrix.CSR[float64] { return gen.Laplacian2D9pt[float64](320, 320) }},
	} {
		out[sp.name] = sp.build(rand.New(rand.NewSource(1_000_003 + int64(i))))
	}
	return out
}

// pickInputs are the workload inputs, a sample across every application
// domain of the synthetic collection, and the generator shapes the workloads
// are built from at two more sizes.
func pickInputs() map[string]*matrix.CSR[float64] {
	out := workloadInputs()
	for _, e := range corpus.New(0.2, 77).Sample(25) {
		out["corpus/"+e.Name] = e.Matrix()
	}
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	for _, n := range []int{600, 5000} {
		size := map[int]string{600: "/small", 5000: "/large"}[n]
		out["gen/band5"+size] = gen.MultiDiagonal[float64](n, []int{-2, -1, 0, 1, 2}, rng(1))
		out["gen/lap2d"+size] = gen.Laplacian2D5pt[float64](n/50, 50)
		out["gen/deg3"+size] = gen.ConstantDegree[float64](n, 3, rng(2))
		out["gen/incidence4"+size] = gen.BipartiteIncidence[float64](n, n/5, 4, rng(3))
		out["gen/rand20"+size] = gen.RandomUniform[float64](n/4, n/4, 20, rng(4))
		out["gen/road"+size] = gen.RoadNetwork[float64](n, rng(5))
		out["gen/plaw4"+size] = gen.PreferentialAttachment[float64](n, 4, rng(6))
	}
	return out
}

// TestTwoPhaseExtractDecidesAsTheFullScan: the runtime record — the row pass
// and the diagonal sample (features.Estimated) — decides what the full scan's
// exact record (features.Extract) decides: the same confident pick or none,
// and where none, the same contenders for the measuring selector. It holds on
// every pick input under the shipped model at each of its two classes (one
// thread and two) and under a freshly trained one, whose rulesets test no
// NTdiags_ratio; and a tune records the runtime record as its features.
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
	noNTdiagsRatio(t, "fresh training", trained)
	inputs := pickInputs()
	type record struct{ est, exact features.Features }
	records := make(map[string]record, len(inputs))
	tuner := autotune.New[float64](shipped, autotune.Config{CacheSize: -1})
	defer tuner.Close()
	for name, m := range inputs {
		est, s := features.Estimated(m)
		records[name] = record{est, features.Extract(m)}
		if s.DiagOffsets != nil {
			t.Errorf("%s: the runtime record tallied the diagonals", name)
		}
		if len(m.Vals) < 20000 {
			if _, d, err := tuner.Tune(m); err != nil || d.Features != est {
				t.Errorf("%s: the tune recorded %+v, the estimate is %+v (err %v)", name, d.Features, est, err)
			}
		}
	}
	for _, c := range []struct {
		name    string
		model   *autotune.Model
		threads int
	}{
		{"shipped/1", shipped, 1},
		{"shipped/2", shipped, 2},
		{"trained", trained.Model, 2},
	} {
		measured := 0
		for name, r := range records {
			got, gotOK, gotOpen := autotune.Picks(c.model, c.threads, &r.est)
			want, wantOK, wantOpen := autotune.Picks(c.model, c.threads, &r.exact)
			switch {
			case gotOK != wantOK || gotOK && got != want:
				t.Errorf("%s, %s: estimate picks %v (%v), the scan %v (%v)\n est   %v\n exact %v", c.name, name, got, gotOK, want, wantOK, r.est.String(), r.exact.String())
			case !gotOK && !slices.Equal(gotOpen, wantOpen):
				t.Errorf("%s, %s: estimate leaves %v open, the scan %v", c.name, name, gotOpen, wantOpen)
			case !gotOK:
				measured++
			}
		}
		t.Logf("%s: %d inputs, %d left to the measuring selector", c.name, len(records), measured)
	}
}

// TestTrainingTestsNoNTdiagsRatio: relearning features.db.jsonl gives rules
// on no NTdiags_ratio — in every class's full ruleset and in the tailored one
// it ships — because DefaultTree weighs the attribute 0: the runtime only
// samples it, and no trained model depends on that sample's ratio.
func TestTrainingTestsNoNTdiagsRatio(t *testing.T) {
	f, err := os.Open("../../features.db.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	db, err := autotune.LoadDatabase(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	res, err := autotune.TrainFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	noNTdiagsRatio(t, "features.db.jsonl", res)
}

// noNTdiagsRatio fails t if a ruleset res learned, full or tailored, has a
// condition on NTdiags_ratio.
func noNTdiagsRatio(t *testing.T, name string, res *autotune.TrainResult) {
	t.Helper()
	attr := slices.Index(features.AttributeNames, "NTdiags_ratio")
	for i, cl := range res.Classes {
		for _, rs := range []*mining.Ruleset{cl.FullRuleset, res.Model.Classes[i].Ruleset} {
			for _, r := range rs.Rules {
				for _, cond := range r.Conds {
					if cond.Attr == attr {
						t.Errorf("%s, %d threads: rule %v tests NTdiags_ratio", name, cl.Threads, r)
					}
				}
			}
		}
	}
}

// TestFillGuardRejectionRunsTheColumnPass: a confident DIA pick whose sample
// missed most of the diagonals — one entry a row, on a different diagonal
// nearly every row — fits the fill limit by the estimate and not by the tally
// DIA's conversion runs; the fill guard rejects from the tally, and the pick
// falls to the measuring selector like any rejected pick, on the call's
// estimated features.
func TestFillGuardRejectionRunsTheColumnPass(t *testing.T) {
	const n = 4000
	ts := make([]matrix.Triple[float64], n)
	for r := range ts {
		ts[r] = matrix.Triple[float64]{Row: r, Col: (61*r + 7) % n, Val: float64(r%7 + 1)}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	est, _ := features.Estimated(m)
	exact := features.Extract(m)
	model := autotune.ModelAlways(matrix.FormatDIA, 0.99)
	model.Classes[0].Ruleset.Rules = append(model.Classes[0].Ruleset.Rules, mining.Rule{Class: int(matrix.FormatCOO), Confidence: 0.5})
	model.MaxFill = float64(est.Ndiags+exact.Ndiags) / 2 // one entry a row: the fill is Ndiags
	if float64(est.Ndiags) > model.MaxFill || float64(exact.Ndiags) <= model.MaxFill {
		t.Fatalf("premise gone: estimated %d diagonals, tallied %d, fill limit %v", est.Ndiags, exact.Ndiags, model.MaxFill)
	}

	tuner := autotune.New[float64](model, autotune.Config{Threads: 2})
	defer tuner.Close()
	op, d, err := tuner.TuneOpts(m, autotune.TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	product(t, op, m, "rejected DIA pick")
	if !d.UsedFallback || d.Features != est || d.Chosen == matrix.FormatDIA {
		t.Errorf("fallback %v, features %+v (estimate: %+v), chose %v", d.UsedFallback, d.Features, est, d.Chosen)
	}
	if _, ok := d.Measured[matrix.FormatCOO]; !ok || len(d.Measured) != 2 {
		t.Errorf("measured %v, want tuned CSR and COO, the matched group DIA's rejection left open", d.Measured)
	}
	if st := tuner.Stats(); st.DiagonalTallies != 1 {
		t.Errorf("%d diagonal tallies, want the rejected conversion's one", st.DiagonalTallies)
	}
}
