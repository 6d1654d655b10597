// Package features extracts the sparse-structure feature parameters of the
// paper's Table 2 from a CSR matrix. These eleven parameters abstract the
// matrix structure for the learning model: basic shape (M, N, NNZ, aver_RD),
// diagonal situation (Ndiags, NTdiags_ratio), nonzero distribution (max_RD,
// var_RD), zero-fill ratios (ER_DIA, ER_ELL) and the power-law exponent R.
package features

import (
	"fmt"
	"math"

	"smat/internal/matrix"
)

// RNone is the sentinel value of the power-law exponent R for matrices whose
// row-degree distribution is not scale-free (the paper prints "inf"). A large
// finite value keeps records JSON-serialisable while still falling outside
// every beneficial interval a rule can learn.
const RNone = 1e9

// TrueDiagOccupancy is the minimum fraction of a diagonal's in-matrix length
// that must be occupied by nonzeros for it to count as a "true diagonal"
// (Section 4: a diagonal "occupied mostly with non-zeros").
const TrueDiagOccupancy = 0.8

// Features holds the Table 2 parameter values for one matrix.
type Features struct {
	M   int `json:"m"`   // number of rows
	N   int `json:"n"`   // number of columns
	NNZ int `json:"nnz"` // number of nonzeros

	AverRD float64 `json:"aver_rd"` // NNZ / M
	MaxRD  float64 `json:"max_rd"`  // max nonzeros per row
	VarRD  float64 `json:"var_rd"`  // Σ|deg−aver|² / M

	// The three parameters below need the O(nnz) pass over the column
	// indices (Extract); the runtime estimates them from a sample instead
	// (Estimated).
	Ndiags       int     `json:"ndiags"`        // occupied diagonals
	NTdiagsRatio float64 `json:"ntdiags_ratio"` // "true" diagonals / Ndiags
	ERDIA        float64 `json:"er_dia"`        // NNZ / (Ndiags·M)
	ERELL        float64 `json:"er_ell"`        // NNZ / (max_RD·M)

	R float64 `json:"r"` // power-law exponent, RNone if not scale-free
}

// AttributeNames lists the feature vector components in Vector() order.
var AttributeNames = []string{
	"M", "N", "NNZ", "aver_RD", "max_RD", "var_RD",
	"Ndiags", "NTdiags_ratio", "ER_DIA", "ER_ELL", "R",
}

// Vector flattens the features in AttributeNames order for the learner.
func (f *Features) Vector() []float64 {
	return []float64{
		float64(f.M), float64(f.N), float64(f.NNZ),
		f.AverRD, f.MaxRD, f.VarRD,
		float64(f.Ndiags), f.NTdiagsRatio, f.ERDIA, f.ERELL,
		f.R,
	}
}

// String formats the record in the paper's Section 5.1 style, e.g.
// "{9801, 9801, 9, 1.0, 87025, 9, 0.35, 0.99, 0.99, inf}".
func (f *Features) String() string {
	r := fmt.Sprintf("%.2f", f.R)
	if f.R >= RNone {
		r = "inf"
	}
	return fmt.Sprintf("{M=%d N=%d NNZ=%d aver_RD=%.2f max_RD=%.0f var_RD=%.2f Ndiags=%d NTdiags_ratio=%.2f ER_DIA=%.3f ER_ELL=%.3f R=%s}",
		f.M, f.N, f.NNZ, f.AverRD, f.MaxRD, f.VarRD, f.Ndiags, f.NTdiagsRatio, f.ERDIA, f.ERELL, r)
}

// Key is a quantized fingerprint of a feature record, designed so that
// structurally similar matrices — the ones for which a prior tuning decision
// transfers — collapse onto the same value. Sizes (M, N, NNZ) and magnitude
// parameters are bucketed on a quarter-log2 scale (matrices within ~19% of
// each other share a bucket); the bounded structural ratios of Table 2 are
// quantized to 1/32 steps; the power-law exponent R to 1/4 steps with a
// sentinel for "not scale-free". Key is comparable and is the map key of the
// runtime decision cache.
type Key struct {
	M, N, NNZ             uint8
	AverRD, MaxRD, VarRD  uint8
	Ndiags                uint8
	NTdiags, ERDIA, ERELL uint8
	R                     int16
}

// qlog buckets a non-negative magnitude on a quarter-log2 scale.
func qlog(x float64) uint8 {
	if x <= 0 || math.IsNaN(x) {
		return 0
	}
	b := math.Round(4 * math.Log2(1+x))
	if b > 255 {
		return 255
	}
	return uint8(b)
}

// qratio quantizes a ratio in [0, 1] to 1/32 steps.
func qratio(x float64) uint8 {
	if x <= 0 || math.IsNaN(x) {
		return 0
	}
	if x >= 1 {
		return 32
	}
	return uint8(math.Round(32 * x))
}

// Key returns the quantized fingerprint of the record.
func (f *Features) Key() Key {
	k := Key{
		M:       qlog(float64(f.M)),
		N:       qlog(float64(f.N)),
		NNZ:     qlog(float64(f.NNZ)),
		AverRD:  qlog(f.AverRD),
		MaxRD:   qlog(f.MaxRD),
		VarRD:   qlog(f.VarRD),
		Ndiags:  qlog(float64(f.Ndiags)),
		NTdiags: qratio(f.NTdiagsRatio),
		ERDIA:   qratio(f.ERDIA),
		ERELL:   qratio(f.ERELL),
	}
	if f.R >= RNone {
		k.R = math.MaxInt16
	} else {
		r := math.Round(4 * f.R)
		switch {
		case r > 1<<14:
			k.R = 1 << 14
		case r < -(1 << 14):
			k.R = -(1 << 14)
		default:
			k.R = int16(r)
		}
	}
	return k
}

// Hash mixes the key into a 64-bit value (FNV-1a over the fields), used by
// the decision cache to pick a shard.
func (k Key) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range [...]uint64{
		uint64(k.M), uint64(k.N), uint64(k.NNZ),
		uint64(k.AverRD), uint64(k.MaxRD), uint64(k.VarRD),
		uint64(k.Ndiags), uint64(k.NTdiags), uint64(k.ERDIA), uint64(k.ERELL),
		uint64(uint16(k.R)),
	} {
		h ^= b
		h *= prime64
		h ^= b >> 8
		h *= prime64
	}
	return h
}

// Extract computes all feature parameters from one scan of the matrix
// structure.
func Extract[T matrix.Float](m *matrix.CSR[T]) Features {
	return FromStructure(matrix.Scan(m))
}

// Estimated is the runtime's record of m, and the row pass it came from: the
// row parameters — M, N, NNZ, aver_RD, max_RD, var_RD, ER_ELL and R — exact,
// from one pass over RowPtr (matrix.ScanRows), which reads no column index;
// the three diagonal ones estimated from a bounded sample of the entries
// (matrix.SampleDiagonals, Estimate). The structure lists no diagonals.
func Estimated[T matrix.Float](m *matrix.CSR[T]) (Features, *matrix.Structure) {
	s := matrix.ScanRows(m)
	f := FromStructure(s)
	f.Estimate(matrix.SampleDiagonals(m, TrueDiagOccupancy))
	return f, s
}

// FromStructure derives the Table 2 parameters from a structure scan, without
// touching the matrix: the row-degree statistics (CSR/ELL parameters) from the
// scan's integer sums, the power-law exponent (the COO parameter) from its
// degree histogram, and the diagonal situation (DIA parameters) from its
// tally. Every sum runs in a fixed order, so equal structures give
// bit-identical features. A record of the row pass alone (matrix.ScanRows) has
// no tally: Ndiags, NTdiags_ratio and ER_DIA are then left zero, for Estimate
// to fill in.
func FromStructure(s *matrix.Structure) Features {
	f := Features{M: s.Rows, N: s.Cols, NNZ: s.NNZ, R: RNone}
	if s.Rows == 0 {
		return f
	}
	f.MaxRD = float64(s.MaxDeg)
	f.AverRD = float64(f.NNZ) / float64(f.M)
	f.VarRD = s.DegreeVariance()
	if s.MaxDeg > 0 {
		f.ERELL = float64(f.NNZ) / (f.MaxRD * float64(f.M))
	}
	f.R = PowerLawExponent(s.DegHist)
	f.Ndiags = len(s.DiagOffsets)
	if f.Ndiags == 0 {
		return f
	}
	trueDiags := 0
	for i, off := range s.DiagOffsets {
		if float64(s.DiagCounts[i]) >= TrueDiagOccupancy*float64(diagLength(s.Rows, s.Cols, off)) {
			trueDiags++
		}
	}
	f.NTdiagsRatio = float64(trueDiags) / float64(f.Ndiags)
	f.ERDIA = erDIA(f.NNZ, f.Ndiags, f.M)
	return f
}

func erDIA(nnz, ndiags, m int) float64 { return float64(nnz) / (float64(ndiags) * float64(m)) }

// Estimate sets the three diagonal parameters of a record of the row pass
// alone from a bounded sample of the entries (matrix.SampleDiagonals, at
// TrueDiagOccupancy). A row's entries lie on distinct diagonals and a
// diagonal holds at most min(M, N) entries, so the row pass proves
// Ndiags ≥ max(max_RD, ⌈NNZ/min(M, N)⌉); the estimate is the larger of that
// bound and the diagonals sampled. It never exceeds the tally's count, and
// meets it on every matrix whose longest row reaches every occupied diagonal
// — bands and stencils — and on every matrix the sample reads whole. ER_DIA
// is its formula at that Ndiags, so never below the tally's; NTdiags_ratio is
// the diagonals the sample found true over Ndiags, one it missed counting as
// not true.
func (f *Features) Estimate(ds matrix.DiagonalSample) {
	if f.NNZ == 0 {
		return
	}
	side := min(f.M, f.N)
	f.Ndiags = max(ds.Diags, int(f.MaxRD), (f.NNZ+side-1)/side)
	f.ERDIA = erDIA(f.NNZ, f.Ndiags, f.M)
	f.NTdiagsRatio = float64(ds.True) / float64(f.Ndiags)
}

// diagLength is the number of in-matrix positions on the diagonal with the
// given offset.
func diagLength(rows, cols, off int) int {
	iStart := 0
	if off < 0 {
		iStart = -off
	}
	jStart := 0
	if off > 0 {
		jStart = off
	}
	n := rows - iStart
	if c := cols - jStart; c < n {
		n = c
	}
	if n < 0 {
		return 0
	}
	return n
}
