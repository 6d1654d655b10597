// Package corpus composes the generators of internal/gen into a synthetic
// stand-in for the University of Florida sparse matrix collection the paper
// trains on: one entry per matrix, tagged with an application domain from
// Table 1, with the per-domain counts of the paper. Matrices are built
// lazily and deterministically from per-entry seeds, and the collection
// splits into a TrainN-entry training set and an evaluation set of the rest
// the way the paper's experimental setup does.
package corpus

import (
	"fmt"
	"math/rand"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// BuildFunc constructs a matrix from an entry's private random stream.
// scale (0, 1] shrinks matrix dimensions for fast tests; 1 is full size.
type BuildFunc func(rng *rand.Rand, scale float64) *matrix.CSR[float64]

// Entry is one corpus matrix: a named, seeded, lazily-built generator call.
type Entry struct {
	Name   string
	Domain string
	Seed   int64
	Scale  float64
	build  BuildFunc
}

// Matrix builds the entry's matrix. Repeated calls return equal matrices.
func (e *Entry) Matrix() *matrix.CSR[float64] {
	return e.build(rand.New(rand.NewSource(e.Seed)), e.Scale)
}

// Collection is the full corpus.
type Collection struct {
	Scale   float64
	Entries []*Entry
}

// domainSpec drives corpus construction: per-domain entry counts follow the
// paper's Table 1.
type domainSpec struct {
	name  string
	count int
	build BuildFunc
}

// sz scales a base dimension, keeping a sane minimum.
func sz(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 16 {
		n = 16
	}
	return n
}

// between draws an int uniformly from [lo, hi].
func between(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// band returns symmetric diagonal offsets {0, ±1·step, …, ±k·step}.
func band(k, step int) []int {
	offs := []int{0}
	for i := 1; i <= k; i++ {
		offs = append(offs, i*step, -i*step)
	}
	return offs
}

func domainSpecs() []domainSpec {
	return []domainSpec{
		{"graph", 334, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			switch rng.Intn(3) {
			case 0:
				return gen.PreferentialAttachment[float64](sz(between(rng, 3000, 9000), s), between(rng, 2, 6), rng)
			case 1:
				return gen.RMAT[float64](between(rng, 9, 12), between(rng, 4, 12), rng)
			default:
				return gen.RoadNetwork[float64](sz(between(rng, 5000, 20000), s), rng)
			}
		}},
		{"linear programming", 327, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			rows := sz(between(rng, 1500, 8000), s)
			cols := rows/2 + rng.Intn(rows)
			return gen.RandomUniform[float64](rows, cols, float64(between(rng, 3, 14)), rng)
		}},
		{"structural", 277, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 3000, 15000), s)
			if rng.Intn(4) == 0 {
				return gen.MultiDiagonal[float64](n, band(between(rng, 2, 8), between(rng, 1, 3)), rng)
			}
			return gen.SparseDiagonal[float64](n, band(between(rng, 3, 10), 1), 0.4+0.6*rng.Float64(), rng)
		}},
		{"combinatorial", 266, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			rows := sz(between(rng, 3000, 12000), s)
			if rng.Intn(3) == 0 {
				// Constant-degree square matrices: the ELL sweet spot.
				return gen.ConstantDegree[float64](rows, between(rng, 2, 6), rng)
			}
			cols := rows/between(rng, 2, 8) + 1
			return gen.BipartiteIncidence[float64](rows, cols, between(rng, 2, 5), rng)
		}},
		{"circuit simulation", 260, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 4000, 20000), s)
			if rng.Intn(2) == 0 {
				return gen.RoadNetwork[float64](n, rng)
			}
			return gen.RandomUniform[float64](n, n, 1.5+2.5*rng.Float64(), rng)
		}},
		{"computational fluid dynamics", 168, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			nx := sz(between(rng, 40, 110), s)
			if rng.Intn(2) == 0 {
				return gen.Laplacian2D5pt[float64](nx, nx)
			}
			return gen.Laplacian2D9pt[float64](nx, nx)
		}},
		{"optimization", 138, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 2000, 9000), s)
			return gen.RandomUniform[float64](n, n, float64(between(rng, 2, 10)), rng)
		}},
		{"2D 3D", 121, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			if rng.Intn(2) == 0 {
				k := sz(between(rng, 12, 26), s)
				return gen.Laplacian3D7pt[float64](k, k, k)
			}
			nx := sz(between(rng, 40, 100), s)
			return gen.Laplacian2D5pt[float64](nx, nx)
		}},
		{"economic", 71, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 2000, 8000), s)
			return gen.RandomUniform[float64](n, n, float64(between(rng, 4, 20)), rng)
		}},
		{"chemical process simulation", 64, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			return gen.BlockDiagonal[float64](sz(between(rng, 200, 900), s), between(rng, 3, 9), rng)
		}},
		{"power network", 61, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			return gen.RoadNetwork[float64](sz(between(rng, 4000, 15000), s), rng)
		}},
		{"model reduction", 60, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 3000, 10000), s)
			if rng.Intn(3) == 0 {
				return gen.PreferentialAttachment[float64](n, between(rng, 2, 4), rng)
			}
			return gen.MultiDiagonal[float64](n, band(between(rng, 3, 12), 1), rng)
		}},
		{"theoretical quantum chemistry", 47, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 5000, 14000), s)
			return gen.MultiDiagonal[float64](n, band(between(rng, 2, 6), between(rng, 1, 40)), rng)
		}},
		{"electromagnetics", 33, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 4000, 12000), s)
			return gen.SparseDiagonal[float64](n, band(between(rng, 3, 8), 1), 0.8+0.2*rng.Float64(), rng)
		}},
		{"semiconductor device", 33, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			nx := sz(between(rng, 40, 90), s)
			return gen.Laplacian2D5pt[float64](nx, nx)
		}},
		{"thermal", 29, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			nx := sz(between(rng, 40, 100), s)
			return gen.Laplacian2D5pt[float64](nx, 2*nx)
		}},
		{"materials", 26, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 4000, 12000), s)
			return gen.MultiDiagonal[float64](n, band(between(rng, 4, 15), 1), rng)
		}},
		{"least squares", 21, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			rows := sz(between(rng, 4000, 12000), s)
			return gen.BipartiteIncidence[float64](rows, rows/between(rng, 4, 10)+1, between(rng, 2, 5), rng)
		}},
		{"computer graphics vision", 12, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 2000, 6000), s)
			return gen.NearConstantDegree[float64](n, between(rng, 4, 9), 1, rng)
		}},
		{"statistical mathematical", 10, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 2000, 6000), s)
			return gen.ConstantDegree[float64](n, between(rng, 3, 8), rng)
		}},
		{"counter-example", 8, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			// Pathological structures: an arrowhead or an anti-band.
			n := sz(between(rng, 2000, 6000), s)
			if rng.Intn(2) == 0 {
				return arrowhead(n, rng)
			}
			return gen.MultiDiagonal[float64](n, []int{-(n - 1) / 2, 0, (n - 1) / 2}, rng)
		}},
		{"acoustics", 7, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			nx := sz(between(rng, 40, 80), s)
			return gen.Laplacian2D9pt[float64](nx, nx)
		}},
		{"robotics", 3, func(rng *rand.Rand, s float64) *matrix.CSR[float64] {
			n := sz(between(rng, 500, 2000), s)
			return gen.RandomUniform[float64](n, n, 4, rng)
		}},
	}
}

// arrowhead builds a matrix with a dense first row and column plus a
// diagonal: maximal row-degree variance (an ELL counter-example).
func arrowhead(n int, rng *rand.Rand) *matrix.CSR[float64] {
	var ts []matrix.Triple[float64]
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: i, Val: 1 + rng.Float64()})
		if i > 0 {
			ts = append(ts, matrix.Triple[float64]{Row: 0, Col: i, Val: 1})
			ts = append(ts, matrix.Triple[float64]{Row: i, Col: 0, Val: 1})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// New builds the full corpus roster at the given scale (1 = full size). The
// roster is deterministic for a fixed baseSeed.
func New(scale float64, baseSeed int64) *Collection {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	c := &Collection{Scale: scale}
	seed := baseSeed
	for _, spec := range domainSpecs() {
		for i := 0; i < spec.count; i++ {
			c.Entries = append(c.Entries, &Entry{
				Name:   fmt.Sprintf("%s_%04d", compactName(spec.name), i),
				Domain: spec.name,
				Seed:   seed,
				Scale:  scale,
				build:  spec.build,
			})
			seed++
		}
	}
	return c
}

func compactName(domain string) string {
	out := make([]byte, 0, len(domain))
	for i := 0; i < len(domain); i++ {
		c := domain[i]
		if c == ' ' {
			c = '-'
		}
		out = append(out, c)
	}
	return string(out)
}

// Domains returns the distinct domain names in roster order.
func (c *Collection) Domains() []string {
	var names []string
	seen := map[string]bool{}
	for _, e := range c.Entries {
		if !seen[e.Domain] {
			seen[e.Domain] = true
			names = append(names, e.Domain)
		}
	}
	return names
}

// TrainN is the paper's training split: the number of corpus entries
// smat-train labels by default. The paper holds out 331 matrices; this
// corpus's 2376 entries leave 321. Every experiment that scores the shipped
// model takes its held-out matrices from those, under the same seed's Split,
// so none of them was trained on.
const TrainN = 2055

// Split partitions the corpus into a training set of trainN entries and an
// evaluation set of the rest, using a deterministic shuffle (the paper uses
// TrainN training matrices).
func (c *Collection) Split(trainN int, seed int64) (train, eval []*Entry) {
	idx := rand.New(rand.NewSource(seed)).Perm(len(c.Entries))
	if trainN > len(idx) {
		trainN = len(idx)
	}
	for i, j := range idx {
		if i < trainN {
			train = append(train, c.Entries[j])
		} else {
			eval = append(eval, c.Entries[j])
		}
	}
	return train, eval
}

// Sample returns every k-th entry, a cheap way to exercise the whole roster
// shape in tests without building thousands of matrices.
func (c *Collection) Sample(k int) []*Entry {
	if k < 1 {
		k = 1
	}
	var out []*Entry
	for i := 0; i < len(c.Entries); i += k {
		out = append(out, c.Entries[i])
	}
	return out
}
