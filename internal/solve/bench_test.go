package solve

import (
	"fmt"
	"math/rand"
	"testing"

	"smat/internal/gen"
)

// BenchmarkVecPhases times CG's three vector phases at one chunk and split
// over a pool (the workers are still spinning between phases: back-to-back
// dispatch, the state inside a solve).
func BenchmarkVecPhases(b *testing.B) {
	const n = 320 * 320
	rng := rand.New(rand.NewSource(1))
	p, ap, x, r := randVec[float64](rng, n), randVec[float64](rng, n), randVec[float64](rng, n), randVec[float64](rng, n)
	for _, threads := range []int{1, 2} {
		op := newPooledOp(gen.Laplacian2D5pt[float64](4, 4), threads)
		var v Vec[float64]
		v.Bind(op, n)
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.SetBytes(11 * 8 * n) // dot 2, update 4+2, xpay 2+1 vector passes
			for i := 0; i < b.N; i++ {
				v.dot(p, ap)
				v.cgUpdate(1e-9, p, ap, x, r)
				v.xpay(r, 0.5, p)
			}
		})
		op.pool.Close()
	}
}

// BenchmarkCG times whole solves: a serial operator, and one that lends its
// pool to the vector phases.
func BenchmarkCG(b *testing.B) {
	a := gen.Laplacian2D5pt[float64](160, 160)
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1 + float64(i%5)/8
	}
	x := make([]float64, a.Rows)
	pooled := newPooledOp(a, 2)
	defer pooled.pool.Close()
	for _, c := range []struct {
		name string
		op   Operator[float64]
	}{{"serial", csrOp{a}}, {"pooled", pooled}} {
		b.Run(c.name, func(b *testing.B) {
			var ws CGScratch[float64]
			for i := 0; i < b.N; i++ {
				clear(x)
				if st, err := CGWith[float64](&ws, c.op, nil, rhs, x, 1e-8, 4000); err != nil || !st.Converged {
					b.Fatalf("stats %+v err %v", st, err)
				}
			}
		})
	}
}
