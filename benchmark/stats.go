package main

import (
	"math"
	"sort"
)

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// values; with fewer than 100/(100-p) samples it degenerates to the maximum.
// It returns 0 for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the mean of the two middle order statistics for even counts.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sorted(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of the positive entries of values; entries
// ≤ 0 are skipped so one degenerate input cannot zero the aggregate.
func geomean(values []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range values {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

// cv is the coefficient of variation (population standard deviation ÷ mean).
func cv(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	mean := sum(values) / float64(len(values))
	if mean == 0 {
		return 0
	}
	acc := 0.0
	for _, v := range values {
		acc += (v - mean) * (v - mean)
	}
	return math.Sqrt(acc/float64(len(values))) / mean
}

// selfTime is a span's own share of its duration: the duration minus what
// its child spans account for, never negative (replayed children can sum to
// more than the root when the replay runs colder than the original stage).
func selfTime(root float64, children ...float64) float64 {
	self := root - sum(children)
	if self < 0 {
		return 0
	}
	return self
}

// ratio is num/den with a zero denominator mapped to 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the run-to-run spread -compare judges against a
// metric's bound. Quartiles follow Python's statistics.quantiles(n=4)
// (exclusive method) so the numbers match the acceptance procedure; fewer
// than two values have no spread.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := sorted(values)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}
