package solve

import (
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// Pooled is the optional interface an Operator implements to lend the
// solvers its worker pool: the vector phases between two products then run
// as chunked sweeps on the workers that ran the product, instead of one
// serial pass on the caller while those workers spin out their budget and
// park. *smat.Operator and *autotune.Operator implement it; an operator
// without it (a closure over a reference product, a plain CSR loop) gets
// the same phases as one chunk on the caller.
//
// RunChunks must call fn once per chunk — chunk c covering
// [bounds[c], bounds[c+1]) — and return when all have finished. When it
// cannot run them concurrently it runs them on the caller in chunk order
// (kernels.Pool.RunChunks); it must not allocate. Threads is the
// largest chunk count it accepts.
type Pooled interface {
	RunChunks(bounds []int, fn func(chunk, lo, hi int))
	Threads() int
}

// Vec is the solvers' vector backend: every BLAS-1 phase of CG and the AMG
// cycle is one of its fused sweeps, each vector read once per
// phase. Bound to a Pooled operator and a length above the kernels' serial
// cutoff it splits the index range into one 8-aligned chunk per thread and
// dispatches them on the operator's pool; otherwise the same body runs as
// one chunk on the caller — there is no second, serial copy of any solver
// loop.
//
// Reductions are deterministic: each chunk accumulates in float64 across
// the four lanes Dot uses and writes its partial to its own cache line, and
// the partials are summed in chunk order on the caller. The result depends
// on the chunk count (so on the thread count) and on nothing else — not on
// which goroutine ran a chunk, nor on whether the pool took the dispatch.
//
// A Vec allocates in Bind when the length or thread count changes and
// nowhere else. It is not safe for concurrent use.
type Vec[T matrix.Float] struct {
	pool   Pooled
	bounds []int
	part   []partial
	body   func(chunk, lo, hi int) // v.chunk, bound once: a phase creates no funcval

	// The running phase and its arguments, set by the phase method and read
	// by the chunks (the pool's dispatch barrier orders both directions).
	op          vecOp
	alpha, beta T
	a, b, c, d  []T
}

// partial is one chunk's reduction slot, padded to a cache line so that
// neighbouring chunks' stores do not share one.
type partial struct {
	s float64
	_ [56]byte
}

type vecOp uint8

const (
	opDot vecOp = iota
	opCGUpdate
	opXpay
	opResidual
	opAxpy
	opJacobi
)

// Bind points the backend at operator a's pool (if it lends one) for
// vectors of length n.
func (v *Vec[T]) Bind(a Operator[T], n int) {
	p, _ := a.(Pooled)
	chunks := 1
	if p != nil && n >= kernels.SerialWork {
		chunks = max(p.Threads(), 1)
	}
	v.pool = p
	if v.body == nil {
		v.body = v.chunk
	}
	if len(v.bounds) == chunks+1 && v.bounds[chunks] == n {
		return
	}
	v.bounds = chunkBounds(n, chunks)
	v.part = make([]partial, chunks)
}

// chunkBounds splits [0, n) into equal chunks whose interior edges are
// multiples of 8 elements (a cache line of float64), so no two chunks write
// the same line of a line-aligned vector.
func chunkBounds(n, chunks int) []int {
	bounds := make([]int, chunks+1)
	for c := 1; c < chunks; c++ {
		bounds[c] = min((c*n/chunks+7)&^7, n)
	}
	bounds[chunks] = n
	return bounds
}

// run executes phase op over the bound range and drops the argument
// references, so a long-lived scratch does not pin a caller's vectors.
//
//smat:hotpath
func (v *Vec[T]) run(op vecOp) {
	v.op = op
	if len(v.bounds) == 2 {
		v.chunk(0, 0, v.bounds[1])
	} else {
		v.pool.RunChunks(v.bounds, v.body)
	}
	v.a, v.b, v.c, v.d = nil, nil, nil, nil
}

// sum adds the chunks' partials in chunk order.
//
//smat:hotpath
func (v *Vec[T]) sum() float64 {
	s := v.part[0].s
	for c := 1; c < len(v.part); c++ {
		s += v.part[c].s
	}
	return s
}

// chunk runs the current phase on [lo, hi) and stores the chunk's partial.
//
//smat:hotpath
func (v *Vec[T]) chunk(c, lo, hi int) {
	s := &v.part[c]
	switch v.op {
	case opDot:
		s.s = Dot(v.a[lo:hi], v.b[lo:hi])
	case opCGUpdate:
		s.s = cgUpdate(v.alpha, v.a[lo:hi], v.b[lo:hi], v.c[lo:hi], v.d[lo:hi])
	case opXpay:
		xpay(v.a[lo:hi], v.beta, v.b[lo:hi])
	case opResidual:
		s.s = residual(v.a[lo:hi], v.b[lo:hi], v.c[lo:hi])
	case opAxpy:
		axpy(v.alpha, v.a[lo:hi], v.b[lo:hi])
	case opJacobi:
		jacobi(v.alpha, v.a[lo:hi], v.b[lo:hi], v.c[lo:hi], v.d[lo:hi])
	}
}

// dot returns ⟨a, b⟩.
//
//smat:hotpath
func (v *Vec[T]) dot(a, b []T) float64 {
	v.a, v.b = a, b
	v.run(opDot)
	return v.sum()
}

// cgUpdate applies the CG step x += α·p, r −= α·ap and returns ⟨r, r⟩ of
// the new r, accumulated while its values are still in registers.
//
//smat:hotpath
func (v *Vec[T]) cgUpdate(alpha T, p, ap, x, r []T) float64 {
	v.alpha, v.a, v.b, v.c, v.d = alpha, p, ap, x, r
	v.run(opCGUpdate)
	return v.sum()
}

// xpay computes p = z + β·p (the CG direction update).
//
//smat:hotpath
func (v *Vec[T]) xpay(z []T, beta T, p []T) {
	v.beta, v.a, v.b = beta, z, p
	v.run(opXpay)
}

// Residual computes r = b − w and returns ‖r‖₂². r may alias w.
//
//smat:hotpath
func (v *Vec[T]) Residual(b, w, r []T) float64 {
	v.a, v.b, v.c = b, w, r
	v.run(opResidual)
	return v.sum()
}

// Axpy computes y += α·x.
//
//smat:hotpath
func (v *Vec[T]) Axpy(alpha T, x, y []T) {
	v.alpha, v.a, v.b = alpha, x, y
	v.run(opAxpy)
}

// Jacobi applies one weighted-Jacobi correction x += ω·(b − w)/d with w
// holding A·x and d the diagonal of A; rows with a zero diagonal are left
// alone.
//
//smat:hotpath
func (v *Vec[T]) Jacobi(omega T, b, w, d, x []T) {
	v.alpha, v.a, v.b, v.c, v.d = omega, b, w, d, x
	v.run(opJacobi)
}
