package features

import "math"

// minDistinctDegrees is the minimum number of distinct positive row degrees
// required before a power-law fit is attempted; below it the distribution
// carries no scale-free signal (regular stencil matrices have one or two
// distinct degrees) and R is reported as RNone, the paper's "inf".
const minDistinctDegrees = 4

// minFitQuality is the minimum coefficient of determination (R²) of the
// log-log least-squares fit for the exponent to be trusted. Genuinely
// scale-free degree distributions (preferential attachment, R-MAT) fit at
// ≈0.8–0.9; irregular-but-uniform random matrices fit at ≈0.7 and must be
// rejected, otherwise every irregular matrix looks like a small-world graph.
const minFitQuality = 0.75

// PowerLawExponent fits P(k) ~ k^(-R) to a row-degree histogram — hist[k] is
// the number of rows with k entries; hist[0] is ignored — by least squares on
// log P(k) vs. log k and returns R. It returns RNone when the distribution is
// not scale-free: too few distinct degrees, a non-decaying fit (R ≤ 0), or a
// poor fit quality. The sums run in ascending k, so the result is a pure
// function of the histogram.
func PowerLawExponent(hist []int) float64 {
	distinct, total := 0, 0
	for k := 1; k < len(hist); k++ {
		if hist[k] > 0 {
			distinct++
			total += hist[k]
		}
	}
	if distinct < minDistinctDegrees {
		return RNone
	}
	// Least squares over (log k, log P(k)).
	var sx, sy, sxx, sxy, syy float64
	n := float64(distinct)
	for k := 1; k < len(hist); k++ {
		if hist[k] == 0 {
			continue
		}
		x := math.Log(float64(k))
		y := math.Log(float64(hist[k]) / float64(total))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return RNone
	}
	slope := (n*sxy - sx*sy) / den
	r := -slope
	if r <= 0 {
		return RNone
	}
	// R² of the fit.
	ssTot := syy - sy*sy/n
	if ssTot <= 0 {
		return RNone
	}
	intercept := (sy - slope*sx) / n
	var ssRes float64
	for k := 1; k < len(hist); k++ {
		if hist[k] == 0 {
			continue
		}
		x := math.Log(float64(k))
		y := math.Log(float64(hist[k]) / float64(total))
		e := y - (slope*x + intercept)
		ssRes += e * e
	}
	if 1-ssRes/ssTot < minFitQuality {
		return RNone
	}
	return r
}
