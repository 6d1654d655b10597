package features_test

import (
	"math/rand"
	"testing"

	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/oracle"
)

// rowPassBound is the least Ndiags the row pass proves: max(max_RD,
// ⌈NNZ/min(M, N)⌉) — what Estimate makes of an empty sample.
func rowPassBound(f features.Features) int {
	f.Estimate(matrix.DiagonalSample{})
	return f.Ndiags
}

// TestRowPassBoundsTheDiagonalFeatures: on every oracle structure and a corpus
// sample, the runtime record (Estimated) is the exact one (Extract) in every
// row parameter, and its diagonal estimate lies between what the row pass
// proves and the tally: Ndiags never above the tally's, so ER_DIA never below
// it, and never above ER_ELL; NTdiags_ratio a ratio. Its row pass is the
// scan's, bit for bit, and lists no diagonals.
func TestRowPassBoundsTheDiagonalFeatures(t *testing.T) {
	tight := 0
	for name, m := range sample(t, 10) {
		full := features.Extract(m)
		est, s := features.Estimated(m)
		if s.DiagOffsets != nil || s.DiagCounts != nil {
			t.Errorf("%s: the runtime record tallied its diagonals", name)
		}
		rows := full
		rows.Ndiags, rows.NTdiagsRatio, rows.ERDIA = est.Ndiags, est.NTdiagsRatio, est.ERDIA
		if est != rows {
			t.Errorf("%s: runtime record\n got  %+v\n want %+v", name, est, rows)
		}
		if bound := rowPassBound(est); est.Ndiags < bound || est.Ndiags > full.Ndiags ||
			est.ERDIA < full.ERDIA || est.ERDIA > est.ERELL || est.NTdiagsRatio < 0 || est.NTdiagsRatio > 1 {
			t.Errorf("%s: estimate %+v outside the row pass's bound %d and the tally %+v", name, est, bound, full)
		}
		if est.Ndiags == full.Ndiags {
			tight++
		}
		if scan := matrix.Scan(m); s.Layout.Rows != scan.Rows || s.MaxDeg != scan.MaxDeg || s.SumDeg2 != scan.SumDeg2 || len(s.DegHist) != len(scan.DegHist) {
			t.Errorf("%s: the runtime row pass differs from the scan's", name)
		}
	}
	if tight == 0 {
		t.Error("no sampled matrix has its diagonal count estimated exactly: bands and stencils should")
	}
}

// sharesDiagonals reports that one row of m reaches every diagonal m
// occupies — the rows share their diagonals, as a band's or a stencil's do.
func sharesDiagonals(m *matrix.CSR[float64], exact int) bool {
	return m.MaxRowDegree() == exact
}

// TestEstimateExactOnBandsAndStencils: the estimated Ndiags, and with it
// ER_DIA, are the tally's on every banded and stencil generator input, at the
// benchmark workloads' sizes among others, and on every oracle structure whose
// rows share their diagonals or whose entries the sample reads whole. The
// estimated NTdiags_ratio is the tally's where the sample reads every entry
// (NNZ ≤ DiagSample); elsewhere a diagonal the sample crosses in few rows may
// read below its occupancy, as lap3d7/5x9x4's boundary diagonals do.
func TestEstimateExactOnBandsAndStencils(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	band := func(k int) []int {
		var offs []int
		for d := -k; d <= k; d++ {
			offs = append(offs, d)
		}
		return offs
	}
	inputs := map[string]*matrix.CSR[float64]{
		"band3":           gen.MultiDiagonal[float64](5000, band(1), rng),
		"band5":           gen.MultiDiagonal[float64](1400, band(2), rng),
		"band35":          gen.MultiDiagonal[float64](40000, band(17), rng),
		"offsets":         gen.MultiDiagonal[float64](3000, []int{-700, -2, 0, 1, 300}, rng),
		"wide offsets":    gen.MultiDiagonal[float64](900, []int{-850, 0, 850}, rng),
		"lap2d5/100x100":  gen.Laplacian2D5pt[float64](100, 100),
		"lap2d5/320x320":  gen.Laplacian2D5pt[float64](320, 320),
		"lap2d5/3x50":     gen.Laplacian2D5pt[float64](3, 50),
		"lap2d9/320x320":  gen.Laplacian2D9pt[float64](320, 320),
		"lap3d7/56^3":     gen.Laplacian3D7pt[float64](56, 56, 56),
		"lap3d7/5x9x4":    gen.Laplacian3D7pt[float64](5, 9, 4),
		"sparse diagonal": gen.SparseDiagonal[float64](4000, band(3), 0.9, rng),
	}
	// A diagonal and one row, which the sample's rows pass over, reaching
	// nine more: the row pass's max_RD alone counts them.
	var ts []matrix.Triple[float64]
	for r := 0; r < 20000; r++ {
		ts = append(ts, matrix.Triple[float64]{Row: r, Col: r, Val: 1})
	}
	for c := 2; c <= 10; c++ {
		ts = append(ts, matrix.Triple[float64]{Row: 1, Col: c, Val: 1})
	}
	longRow, err := matrix.FromTriples(20000, 20000, ts)
	if err != nil {
		t.Fatal(err)
	}
	inputs["one long row"] = longRow
	for _, spec := range oracle.Specs() {
		m, err := oracle.BuildCSR[float64](&spec)
		if err != nil {
			t.Fatal(err)
		}
		if exact := len(matrix.Scan(m).DiagOffsets); sharesDiagonals(m, exact) || m.NNZ() <= matrix.DiagSample {
			inputs["oracle/"+spec.Name] = m
		}
	}
	whole := 0
	for name, m := range inputs {
		full := features.Extract(m)
		est, _ := features.Estimated(m)
		read := m.NNZ() <= matrix.DiagSample
		if est.Ndiags != full.Ndiags || est.ERDIA != full.ERDIA || read && est.NTdiagsRatio != full.NTdiagsRatio {
			t.Errorf("%s: estimated Ndiags %d ER_DIA %v NTdiags_ratio %v, tally %d %v %v", name,
				est.Ndiags, est.ERDIA, est.NTdiagsRatio, full.Ndiags, full.ERDIA, full.NTdiagsRatio)
		}
		if read {
			whole++
		}
	}
	if whole == 0 {
		t.Error("no input is read whole: NTdiags_ratio's exactness goes unchecked")
	}
}

// TestEstimateAllocatesNothing: the diagonal estimate — the sample and the
// arithmetic on it — allocates nothing, whatever the matrix.
func TestEstimateAllocatesNothing(t *testing.T) {
	for name, m := range sample(t, 40) {
		ft := features.FromStructure(matrix.ScanRows(m))
		if allocs := testing.AllocsPerRun(10, func() { ft.Estimate(matrix.SampleDiagonals(m, features.TrueDiagOccupancy)) }); allocs != 0 {
			t.Errorf("%s: the estimate allocates %v times", name, allocs)
		}
	}
}
