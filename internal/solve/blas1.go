package solve

import (
	"math"

	"smat/internal/matrix"
)

// Level-1 kernels shared by the solvers and internal/amg. Inner products
// accumulate in float64 across four independent partial sums: the unrolled
// lanes break the loop-carried dependence on the accumulator, and the
// float64 carry keeps float32 solves from losing the residual's low bits.
// They run several times per solver iteration, so they are annotated hot
// and kept allocation-free.

// Dot returns ⟨a, b⟩ accumulated in float64. The slices must have equal
// length.
//
//smat:hotpath
func Dot[T matrix.Float](a, b []T) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm2 returns ‖v‖₂ accumulated in float64.
//
//smat:hotpath
func Norm2[T matrix.Float](v []T) float64 {
	return math.Sqrt(Dot(v, v))
}

// The functions below are the chunk bodies of Vec's phases (vec.go): each is
// written for a sub-range and is only ever called on one. The reducing ones
// use Dot's four-lane float64 accumulation, so at one chunk a fused sweep
// returns the bits a separate Dot over its output would.

// cgUpdate fuses the CG solution and residual updates — x += α·p,
// r −= α·ap — with the new residual's ⟨r, r⟩: one pass over four vectors
// instead of three passes over two, two and one.
//
//smat:hotpath
func cgUpdate[T matrix.Float](alpha T, p, ap, x, r []T) float64 {
	n := len(x)
	p, ap, r = p[:n], ap[:n], r[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		x[i] += alpha * p[i]
		x[i+1] += alpha * p[i+1]
		x[i+2] += alpha * p[i+2]
		x[i+3] += alpha * p[i+3]
		v0 := r[i] - alpha*ap[i]
		v1 := r[i+1] - alpha*ap[i+1]
		v2 := r[i+2] - alpha*ap[i+2]
		v3 := r[i+3] - alpha*ap[i+3]
		r[i], r[i+1], r[i+2], r[i+3] = v0, v1, v2, v3
		s0 += float64(v0) * float64(v0)
		s1 += float64(v1) * float64(v1)
		s2 += float64(v2) * float64(v2)
		s3 += float64(v3) * float64(v3)
	}
	for ; i < n; i++ {
		x[i] += alpha * p[i]
		v := r[i] - alpha*ap[i]
		r[i] = v
		s0 += float64(v) * float64(v)
	}
	return (s0 + s1) + (s2 + s3)
}

// xpay computes p = z + β·p elementwise in T precision (the CG direction
// update).
//
//smat:hotpath
func xpay[T matrix.Float](z []T, beta T, p []T) {
	p = p[:len(z)]
	for i := range z {
		p[i] = z[i] + beta*p[i]
	}
}

// residual computes r = b − w and returns ⟨r, r⟩. r may alias b or w.
//
//smat:hotpath
func residual[T matrix.Float](b, w, r []T) float64 {
	n := len(r)
	b, w = b[:n], w[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		v0 := b[i] - w[i]
		v1 := b[i+1] - w[i+1]
		v2 := b[i+2] - w[i+2]
		v3 := b[i+3] - w[i+3]
		r[i], r[i+1], r[i+2], r[i+3] = v0, v1, v2, v3
		s0 += float64(v0) * float64(v0)
		s1 += float64(v1) * float64(v1)
		s2 += float64(v2) * float64(v2)
		s3 += float64(v3) * float64(v3)
	}
	for ; i < n; i++ {
		v := b[i] - w[i]
		r[i] = v
		s0 += float64(v) * float64(v)
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy computes y += α·x elementwise in T precision.
//
//smat:hotpath
func axpy[T matrix.Float](alpha T, x, y []T) {
	y = y[:len(x)]
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// jacobi computes x += ω·(b − w)/d over the rows whose diagonal d is
// nonzero (one weighted-Jacobi sweep, w holding A·x).
//
//smat:hotpath
func jacobi[T matrix.Float](omega T, b, w, d, x []T) {
	n := len(x)
	b, w, d = b[:n], w[:n], d[:n]
	for i := 0; i < n; i++ {
		if di := d[i]; di != 0 {
			x[i] += omega * (b[i] - w[i]) / di
		}
	}
}
