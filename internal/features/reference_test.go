package features_test

import (
	"math"
	"testing"

	"smat/internal/corpus"
	"smat/internal/features"
	"smat/internal/matrix"
	"smat/internal/oracle"
)

// extractReference is the extractor as it stood before Extract became
// FromStructure(Scan(m)), frozen: its own combined diagonal and row-degree
// pass (flat array, or a map for hypersparse matrices), a second pass for
// the variance, and a map-based degree histogram for the power-law fit. It
// is the differential baseline that holds the scan-fed extractor to the same
// decisions.
func extractReference(m *matrix.CSR[float64]) features.Features {
	f := features.Features{M: m.Rows, N: m.Cols, NNZ: m.NNZ()}
	if m.Rows == 0 {
		f.R = features.RNone
		return f
	}
	base := m.Rows - 1
	hypersparse := f.NNZ < (m.Rows+m.Cols)/8
	var diagFlat []int32
	var diagMap map[int]int32
	if hypersparse {
		diagMap = make(map[int]int32, f.NNZ)
	} else {
		diagFlat = make([]int32, m.Rows+m.Cols-1)
	}
	maxRD := 0
	degrees := make([]int, m.Rows)
	for r := 0; r < m.Rows; r++ {
		deg := m.RowPtr[r+1] - m.RowPtr[r]
		degrees[r] = deg
		if deg > maxRD {
			maxRD = deg
		}
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			if hypersparse {
				diagMap[m.ColIdx[jj]-r]++
			} else {
				diagFlat[m.ColIdx[jj]-r+base]++
			}
		}
	}
	f.MaxRD = float64(maxRD)
	f.AverRD = float64(f.NNZ) / float64(f.M)
	var acc float64
	for _, d := range degrees {
		diff := float64(d) - f.AverRD
		acc += diff * diff
	}
	f.VarRD = acc / float64(f.M)

	trueDiags := 0
	countDiag := func(off int, cnt int32) {
		f.Ndiags++
		length := min(m.Rows+min(off, 0), m.Cols-max(off, 0))
		if float64(cnt) >= features.TrueDiagOccupancy*float64(length) {
			trueDiags++
		}
	}
	if hypersparse {
		for off, cnt := range diagMap {
			countDiag(off, cnt)
		}
	} else {
		for idx, cnt := range diagFlat {
			if cnt != 0 {
				countDiag(idx-base, cnt)
			}
		}
	}
	if f.Ndiags > 0 {
		f.NTdiagsRatio = float64(trueDiags) / float64(f.Ndiags)
		f.ERDIA = float64(f.NNZ) / (float64(f.Ndiags) * float64(f.M))
	}
	if maxRD > 0 {
		f.ERELL = float64(f.NNZ) / (f.MaxRD * float64(f.M))
	}
	f.R = powerLawReference(degrees)
	return f
}

// powerLawReference is the frozen power-law fit: a map histogram whose
// least-squares sums run in map-iteration order, so its last bits vary from
// call to call.
func powerLawReference(degrees []int) float64 {
	hist := make(map[int]int)
	total := 0
	for _, d := range degrees {
		if d > 0 {
			hist[d]++
			total++
		}
	}
	if len(hist) < 4 || total == 0 {
		return features.RNone
	}
	var sx, sy, sxx, sxy, syy float64
	n := float64(len(hist))
	for k, cnt := range hist {
		x := math.Log(float64(k))
		y := math.Log(float64(cnt) / float64(total))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return features.RNone
	}
	slope := (n*sxy - sx*sy) / den
	if -slope <= 0 {
		return features.RNone
	}
	ssTot := syy - sy*sy/n
	if ssTot <= 0 {
		return features.RNone
	}
	intercept := (sy - slope*sx) / n
	var ssRes float64
	for k, cnt := range hist {
		x := math.Log(float64(k))
		y := math.Log(float64(cnt) / float64(total))
		e := y - (slope*x + intercept)
		ssRes += e * e
	}
	if 1-ssRes/ssTot < 0.75 {
		return features.RNone
	}
	return -slope
}

// sample is the matrices the differential and stability tests run on: every
// oracle spec and every stride-th corpus entry at a small scale.
func sample(t *testing.T, stride int) map[string]*matrix.CSR[float64] {
	t.Helper()
	out := map[string]*matrix.CSR[float64]{}
	for _, spec := range oracle.Specs() {
		m, err := oracle.BuildCSR[float64](&spec)
		if err != nil {
			t.Fatal(err)
		}
		out[spec.Name] = m
	}
	for _, e := range corpus.New(0.05, 1).Sample(stride) {
		out[e.Name] = e.Matrix()
	}
	return out
}

// TestExtractMatchesReference: the scan-fed extractor decides what the frozen
// one did. Every counted field is equal; the two whose arithmetic changed —
// Var_RD (exact integer sums for a second floating-point pass) and R (an
// ascending histogram walk for a map walk) — agree to 1e-12 relative.
func TestExtractMatchesReference(t *testing.T) {
	const tol = 1e-12
	close := func(got, want float64) bool {
		return got == want || math.Abs(got-want) <= tol*math.Abs(want)
	}
	fitted := 0
	for name, m := range sample(t, 12) {
		got, want := features.Extract(m), extractReference(m)
		if !close(got.VarRD, want.VarRD) {
			t.Errorf("%s: Var_RD = %v, reference %v", name, got.VarRD, want.VarRD)
		}
		if !close(got.R, want.R) {
			t.Errorf("%s: R = %v, reference %v", name, got.R, want.R)
		}
		if got.R != features.RNone {
			fitted++
		}
		got.VarRD, got.R = want.VarRD, want.R
		if got != want {
			t.Errorf("%s: features\n got  %+v\n want %+v", name, got, want)
		}
	}
	if fitted < 5 {
		t.Errorf("only %d sampled matrices have a power-law fit: the R comparison is vacuous", fitted)
	}
}

// TestExtractBitStable: the features, and so the decision-cache key and every
// rule condition thresholded from them, are a pure function of the structure.
// The map-order sums of the old power-law fit moved R's last bits from run to
// run.
func TestExtractBitStable(t *testing.T) {
	ms := sample(t, 20)
	if len(ms) < 100 {
		t.Fatalf("sample holds %d matrices, want at least 100", len(ms))
	}
	for name, m := range ms {
		a, b := features.Extract(m), features.Extract(m)
		if a != b || a.Key() != b.Key() {
			t.Errorf("%s: two extractions differ:\n %+v\n %+v", name, a, b)
		}
	}
}

// TestExtractAllocationsConstant: extraction allocates the scan record's
// slices and nothing that grows with the matrix — no map, no appends.
func TestExtractAllocationsConstant(t *testing.T) {
	for _, e := range corpus.New(0.05, 1).Sample(150) {
		m := e.Matrix()
		if allocs := testing.AllocsPerRun(3, func() { features.Extract(m) }); allocs > 6 {
			t.Errorf("%s (%d nonzeros): Extract allocates %.0f objects, want at most 6", e.Name, m.NNZ(), allocs)
		}
	}
}
