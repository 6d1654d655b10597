// Package oracle is SMAT's differential correctness harness: it generates
// adversarial sparse structures and checks every registered kernel, every
// format conversion round trip and every plan partition against a pure-Go
// dense reference computed in float64. Three properties are enforced for
// each (matrix, format, kernel, thread count) combination:
//
//  1. the SpMV result matches the reference within a per-type, per-row
//     rounding bound (see tolerance.go);
//  2. Validate() holds on every converted representation, and converting
//     back to CSR reproduces the original matrix exactly;
//  3. serial, spawned-goroutine and pooled execution agree bit for bit.
//
// The same generators feed the native fuzz targets (FuzzSpMVDifferential
// here, FuzzFromTriples / FuzzConvertRoundTrip in internal/matrix,
// FuzzMMIORead in internal/mmio) through DecodeSpec, which maps arbitrary
// fuzzer bytes onto a bounded Spec.
package oracle

import (
	"fmt"

	"smat/internal/matrix"
)

// Spec is one generated test matrix: a name for failure messages plus the
// shape and coordinate triples it is assembled from. Values are always of
// the form k/8 with small k, exactly representable in float32 and float64,
// so duplicate summing and cancellation behave identically in both element
// types and the reference computation is exact per product.
type Spec struct {
	Name       string
	Rows, Cols int
	Triples    []matrix.Triple[float64]
}

// NNZ returns the number of raw triples (before duplicate summing).
func (s *Spec) NNZ() int { return len(s.Triples) }

// val maps an integer onto the exact-in-float32 value grid, avoiding zero
// (FromTriples drops explicit zeros, which would silently shrink a case).
func val(k int) float64 {
	v := float64(k%41-20) / 8
	if v == 0 {
		return 0.125
	}
	return v
}

// lcg is a tiny deterministic generator so specs are reproducible without
// math/rand seeding conventions leaking into golden failures.
type lcg struct{ s uint64 }

func (g *lcg) next() uint64 {
	g.s = g.s*6364136223846793005 + 1442695040888963407
	return g.s >> 33
}

func (g *lcg) intn(n int) int { return int(g.next() % uint64(n)) }

// Specs returns the adversarial structure suite. Each entry targets a
// boundary that has bitten a sparse kernel or conversion somewhere: empty
// dimensions, single rows/columns, rows and columns with no entries,
// duplicate-heavy input, dense blocks, ragged power-law rows, extreme
// aspect ratios, and structures big enough (estimated work ≥ the engine's
// serial cutoff) that parallel row/nnz/entry partitions genuinely run.
func Specs() []Spec {
	specs := []Spec{
		{Name: "empty-0x0", Rows: 0, Cols: 0},
		{Name: "zero-rows-0xN", Rows: 0, Cols: 7},
		{Name: "zero-cols-Nx0", Rows: 7, Cols: 0},
		{Name: "empty-10x10", Rows: 10, Cols: 10},
		{Name: "single-1x1", Rows: 1, Cols: 1,
			Triples: []matrix.Triple[float64]{{Row: 0, Col: 0, Val: -2.5}}},
	}

	specs = append(specs, singleRow(), singleCol(), denseSmall(), denseBlock(),
		emptyRowsCols(), duplicateHeavy(), raggedPowerLaw(), diagBanded(),
		wideExtreme(), tallExtreme(), parallelLaplacian(), powerLawParallel(),
		hybTailParallel())
	return specs
}

func singleRow() Spec {
	s := Spec{Name: "single-row", Rows: 1, Cols: 64}
	for c := 0; c < 64; c += 3 {
		s.Triples = append(s.Triples, matrix.Triple[float64]{Row: 0, Col: c, Val: val(c)})
	}
	return s
}

func singleCol() Spec {
	s := Spec{Name: "single-col", Rows: 64, Cols: 1}
	for r := 0; r < 64; r += 2 {
		s.Triples = append(s.Triples, matrix.Triple[float64]{Row: r, Col: 0, Val: val(r + 1)})
	}
	return s
}

func denseSmall() Spec {
	s := Spec{Name: "dense-small", Rows: 6, Cols: 6}
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			s.Triples = append(s.Triples, matrix.Triple[float64]{Row: r, Col: c, Val: val(r*6 + c)})
		}
	}
	return s
}

// denseBlock embeds a fully dense 8x8 block in an otherwise sparse matrix:
// block structure run through the stock formats, the shape ELL padding hates.
func denseBlock() Spec {
	s := Spec{Name: "dense-block", Rows: 16, Cols: 16}
	for r := 4; r < 12; r++ {
		for c := 4; c < 12; c++ {
			s.Triples = append(s.Triples, matrix.Triple[float64]{Row: r, Col: c, Val: val(r + 2*c)})
		}
	}
	s.Triples = append(s.Triples,
		matrix.Triple[float64]{Row: 0, Col: 15, Val: 1.5},
		matrix.Triple[float64]{Row: 15, Col: 0, Val: -1.5})
	return s
}

// emptyRowsCols scatters entries so several rows and columns hold nothing:
// row pointers with zero-length spans and untouched x elements.
func emptyRowsCols() Spec {
	s := Spec{Name: "empty-rows-cols", Rows: 12, Cols: 12}
	for i, rc := range [][2]int{{0, 3}, {0, 9}, {4, 4}, {4, 0}, {7, 9}, {11, 3}} {
		s.Triples = append(s.Triples, matrix.Triple[float64]{Row: rc[0], Col: rc[1], Val: val(i)})
	}
	return s
}

// duplicateHeavy repeats coordinates many times, including pairs that sum
// to exactly zero: FromTriples must sum the repeats and drop the cancelled
// entry entirely.
func duplicateHeavy() Spec {
	s := Spec{Name: "duplicate-heavy", Rows: 8, Cols: 8}
	for i := 0; i < 5; i++ {
		s.Triples = append(s.Triples,
			matrix.Triple[float64]{Row: 2, Col: 3, Val: 0.25},
			matrix.Triple[float64]{Row: 5, Col: 1, Val: val(i)})
	}
	// A cancelling pair: +1.5 and -1.5 at (6,6) must vanish.
	s.Triples = append(s.Triples,
		matrix.Triple[float64]{Row: 6, Col: 6, Val: 1.5},
		matrix.Triple[float64]{Row: 6, Col: 6, Val: -1.5},
		matrix.Triple[float64]{Row: 0, Col: 7, Val: 2})
	return s
}

// raggedPowerLaw gives row r roughly degree/(r+1) entries: a few heavy rows
// and a long sparse tail, the worst case for even row partitions and for
// ELL width.
func raggedPowerLaw() Spec {
	s := Spec{Name: "ragged-powerlaw", Rows: 40, Cols: 40}
	g := &lcg{s: 7}
	for r := 0; r < 40; r++ {
		deg := 40 / (r + 1)
		for j := 0; j < deg; j++ {
			s.Triples = append(s.Triples, matrix.Triple[float64]{
				Row: r, Col: g.intn(40), Val: val(int(g.next())),
			})
		}
	}
	return s
}

func diagBanded() Spec {
	s := Spec{Name: "diag-banded", Rows: 64, Cols: 64}
	for r := 0; r < 64; r++ {
		for _, off := range []int{-5, -1, 0, 1, 5} {
			if c := r + off; c >= 0 && c < 64 {
				s.Triples = append(s.Triples, matrix.Triple[float64]{Row: r, Col: c, Val: val(r + off)})
			}
		}
	}
	return s
}

// wideExtreme and tallExtreme push one dimension near the practical limit
// while the other stays tiny, stressing column-index width, evenBounds with
// threads > rows, and DIA's offset range.
func wideExtreme() Spec {
	s := Spec{Name: "wide-extreme-3x50000", Rows: 3, Cols: 50000}
	for _, c := range []int{0, 1, 2, 49997, 49998, 49999, 25000} {
		for r := 0; r < 3; r++ {
			s.Triples = append(s.Triples, matrix.Triple[float64]{Row: r, Col: c, Val: val(r + c)})
		}
	}
	return s
}

func tallExtreme() Spec {
	s := Spec{Name: "tall-extreme-50000x3", Rows: 50000, Cols: 3}
	for _, r := range []int{0, 1, 2, 49997, 49998, 49999, 25000} {
		for c := 0; c < 3; c++ {
			s.Triples = append(s.Triples, matrix.Triple[float64]{Row: r, Col: c, Val: val(r + c)})
		}
	}
	return s
}

// parallelLaplacian is the 1-D Laplacian with ~18k nonzeros: enough
// estimated work that every format's plan genuinely partitions (the engine
// serialises below 8192 work items), with a 3-diagonal structure DIA and
// ELL accept without fill explosion.
func parallelLaplacian() Spec {
	const n = 6000
	s := Spec{Name: "parallel-laplacian", Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		s.Triples = append(s.Triples, matrix.Triple[float64]{Row: i, Col: i, Val: 2})
		if i > 0 {
			s.Triples = append(s.Triples, matrix.Triple[float64]{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			s.Triples = append(s.Triples, matrix.Triple[float64]{Row: i, Col: i + 1, Val: -1})
		}
	}
	return s
}

// powerLawParallel combines the ragged degree distribution with enough
// nonzeros to run the nnz-balanced and entry-balanced parallel partitions.
func powerLawParallel() Spec {
	const n = 2000
	s := Spec{Name: "powerlaw-parallel", Rows: n, Cols: n}
	g := &lcg{s: 99}
	for r := 0; r < n; r++ {
		deg := 4 + 400/(r+20)
		for j := 0; j < deg; j++ {
			s.Triples = append(s.Triples, matrix.Triple[float64]{
				Row: r, Col: g.intn(n), Val: val(int(g.next())),
			})
		}
	}
	return s
}

// hybTailParallel is shaped so ToHYB's width split leaves a COO tail of
// ≥ 8192 entries: most rows have degree 2 (the chosen ELL width) while 200
// heavy rows overflow ~58 entries each into the tail, exercising the HYB
// kernels' parallel tail accumulation rather than the serial fallback.
func hybTailParallel() Spec {
	const n = 3000
	s := Spec{Name: "hyb-tail-parallel", Rows: n, Cols: n}
	g := &lcg{s: 31}
	for r := 0; r < n; r++ {
		deg := 2
		if r%15 == 0 {
			deg = 60
		}
		for j := 0; j < deg; j++ {
			s.Triples = append(s.Triples, matrix.Triple[float64]{
				Row: r, Col: g.intn(n), Val: val(int(g.next())),
			})
		}
	}
	return s
}

// BuildCSR assembles the spec at the requested element type. Spec values
// are exact in float32, so the float32 and float64 builds describe the
// same mathematical matrix.
func BuildCSR[T matrix.Float](s *Spec) (*matrix.CSR[T], error) {
	ts := make([]matrix.Triple[T], len(s.Triples))
	for i, t := range s.Triples {
		ts[i] = matrix.Triple[T]{Row: t.Row, Col: t.Col, Val: T(t.Val)}
	}
	m, err := matrix.FromTriples(s.Rows, s.Cols, ts)
	if err != nil {
		return nil, fmt.Errorf("oracle: spec %q does not assemble: %w", s.Name, err)
	}
	return m, nil
}
