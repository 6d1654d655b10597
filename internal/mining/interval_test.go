package mining

import (
	"math"
	"math/rand"
	"testing"
)

// grid draws attribute values and thresholds from the same few numbers, so
// that a bound equal to a threshold is the common case, not the rare one.
func grid(rng *rand.Rand) float64 { return float64(rng.Intn(9)-4) / 2 }

func randomRule(rng *rand.Rand, attrs int) Rule {
	r := Rule{Conds: make([]Condition, rng.Intn(5))}
	for i := range r.Conds {
		r.Conds[i] = Condition{Attr: rng.Intn(attrs), Op: Op(rng.Intn(2)), Threshold: grid(rng)}
	}
	return r
}

// TestOverIsSound: whenever a rule's evaluation over a box says True or False,
// Matches says the same at every sampled point of the box — its corners, the
// points with each coordinate at either bound, and random interior points —
// and a condition's verdict is the same against its own Matches. Random
// rules over random boxes: about half the verdicts are False, a third True and
// a seventh Open, so no side of the property is vacuous.
func TestOverIsSound(t *testing.T) {
	const attrs = 4
	rng := rand.New(rand.NewSource(1))
	verdicts := map[Tri]int{}
	for trial := 0; trial < 20000; trial++ {
		r := randomRule(rng, attrs)
		lo, hi := make([]float64, attrs), make([]float64, attrs)
		for a := range lo {
			lo[a], hi[a] = grid(rng), grid(rng)
			if lo[a] > hi[a] {
				lo[a], hi[a] = hi[a], lo[a]
			}
			if rng.Intn(3) == 0 {
				hi[a] = lo[a] // a known attribute: most of a feature box is
			}
		}
		v := r.Over(lo, hi)
		verdicts[v]++
		point := make([]float64, attrs)
		for sample := 0; sample < 1<<attrs+16; sample++ {
			for a := range point {
				switch {
				case sample < 1<<attrs && sample>>a&1 == 0:
					point[a] = lo[a]
				case sample < 1<<attrs:
					point[a] = hi[a]
				default:
					point[a] = lo[a] + rng.Float64()*(hi[a]-lo[a])
				}
			}
			if got := r.Matches(point); v != Open && got != (v == True) {
				t.Fatalf("rule %+v over [%v, %v] is %d, but Matches(%v) = %v", r, lo, hi, v, point, got)
			}
			for _, c := range r.Conds {
				if cv := c.Over(lo, hi); cv != Open && c.Matches(point) != (cv == True) {
					t.Fatalf("condition %+v over [%v, %v] is %d, but Matches(%v) = %v", c, lo, hi, cv, point, c.Matches(point))
				}
			}
		}
	}
	for _, v := range []Tri{False, Open, True} {
		if verdicts[v] < 1000 {
			t.Errorf("only %d of 20000 verdicts were %d: the property is nearly vacuous on that side", verdicts[v], v)
		}
	}
}

// TestOverPointBoxIsMatches: over a box that is one point — an exact feature
// record — the evaluation is Matches, never Open, infinities and NaN included.
func TestOverPointBoxIsMatches(t *testing.T) {
	const attrs = 3
	rng := rand.New(rand.NewSource(2))
	special := []float64{math.Inf(-1), math.Inf(1), math.NaN()}
	for trial := 0; trial < 20000; trial++ {
		r := randomRule(rng, attrs)
		if len(r.Conds) > 0 && rng.Intn(8) == 0 {
			r.Conds[0].Threshold = special[rng.Intn(len(special))]
		}
		point := make([]float64, attrs)
		for a := range point {
			point[a] = grid(rng)
			if rng.Intn(8) == 0 {
				point[a] = special[rng.Intn(len(special))]
			}
		}
		want := False
		if r.Matches(point) {
			want = True
		}
		if got := r.Over(point, point); got != want {
			t.Fatalf("rule %+v over the point %v is %d, Matches says %d", r, point, got, want)
		}
	}
}

// TestOverThresholdAtBound: a threshold equal to a bound falls on the side
// Condition.Matches puts it — ≤ includes the threshold, > excludes it.
func TestOverThresholdAtBound(t *testing.T) {
	le, gt := Condition{Op: OpLE, Threshold: 2}, Condition{Op: OpGT, Threshold: 2}
	for _, c := range []struct {
		lo, hi float64
		le, gt Tri
	}{
		{1, 2, True, False}, // hi on the threshold: every point is ≤ it, none > it
		{2, 3, Open, Open},  // lo on the threshold: lo is ≤ it and not > it, the rest the reverse
		{2, 2, True, False},
		{1, 3, Open, Open},
		{math.Nextafter(2, 3), 3, False, True},
		{1, math.Nextafter(2, 1), True, False},
	} {
		lo, hi := []float64{c.lo}, []float64{c.hi}
		if got := le.Over(lo, hi); got != c.le {
			t.Errorf("x ≤ 2 over [%v, %v] is %d, want %d", c.lo, c.hi, got, c.le)
		}
		if got := gt.Over(lo, hi); got != c.gt {
			t.Errorf("x > 2 over [%v, %v] is %d, want %d", c.lo, c.hi, got, c.gt)
		}
	}
}
