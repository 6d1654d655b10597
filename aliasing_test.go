package smat

import (
	"strings"
	"testing"
)

// TestCSRSpMVRejectsAliasedVectors is the regression test for the aliased
// x/y silent corruption: kernels clear y before accumulating reads of x, so
// a shared buffer used to zero the input mid-multiply and return a wrong
// product with no error. The overlap is now rejected up front.
func TestCSRSpMVRejectsAliasedVectors(t *testing.T) {
	tn := NewTuner[float64](DefaultModel(), WithThreads(2))
	defer tn.Close()
	a, err := FromEntries(4, 4, diagEntries(4))
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]float64, 4)
	if err := tn.CSRSpMV(a, buf, buf); err == nil {
		t.Fatal("identical x and y accepted")
	} else if !strings.Contains(err.Error(), "share memory") {
		t.Fatalf("wrong error: %v", err)
	}

	// Overlapping sub-slices of one backing array are also aliased.
	wide := make([]float64, 7)
	if err := tn.CSRSpMV(a, wide[:4], wide[3:]); err == nil {
		t.Fatal("overlapping x and y accepted")
	}

	// Disjoint halves of one backing array are legal.
	split := make([]float64, 8)
	x, y := split[:4], split[4:]
	for i := range x {
		x[i] = 1
	}
	if err := tn.CSRSpMV(a, x, y); err != nil {
		t.Fatalf("disjoint halves rejected: %v", err)
	}
	// Tridiagonal (2,-1) times ones: interior rows sum to 0, end rows to 1.
	want := []float64{1, 0, 0, 1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

// TestCSRSpMVBatchRejectsAliasedBuffers extends the aliasing contract to the
// batched path: any yb region overlapping xb must be rejected before a
// kernel runs, on top of the shape and width validation.
func TestCSRSpMVBatchRejectsAliasedBuffers(t *testing.T) {
	tn := NewTuner[float64](DefaultModel(), WithThreads(2))
	defer tn.Close()
	a, err := FromEntries(4, 4, diagEntries(4))
	if err != nil {
		t.Fatal(err)
	}
	const k = 2

	buf := make([]float64, 4*k)
	if err := tn.CSRSpMVBatch(a, buf, buf, k); err == nil {
		t.Fatal("identical xb and yb accepted")
	} else if !strings.Contains(err.Error(), "share memory") {
		t.Fatalf("wrong error: %v", err)
	}

	// A yb region overlapping any part of xb is aliased.
	shared := make([]float64, 4*k+4*k-2)
	if err := tn.CSRSpMVBatch(a, shared[:4*k], shared[4*k-2:], k); err == nil {
		t.Fatal("yb overlapping the tail of xb accepted")
	} else if !strings.Contains(err.Error(), "share memory") {
		t.Fatalf("wrong error: %v", err)
	}

	// Negative width and mis-sized buffers are rejected too.
	if err := tn.CSRSpMVBatch(a, make([]float64, 4*k), make([]float64, 4*k), -1); err == nil {
		t.Fatal("negative batch width accepted")
	}
	if err := tn.CSRSpMVBatch(a, make([]float64, 4*k-1), make([]float64, 4*k), k); err == nil {
		t.Fatal("mis-sized xb accepted")
	}

	// Disjoint halves of one backing array are legal.
	split := make([]float64, 2*4*k)
	xb, yb := split[:4*k], split[4*k:]
	for i := range xb {
		xb[i] = 1
	}
	if err := tn.CSRSpMVBatch(a, xb, yb, k); err != nil {
		t.Fatalf("disjoint batched halves rejected: %v", err)
	}
	// Tridiagonal (2,-1) times ones, both columns: rows 0 and 3 give 1.
	want := []float64{1, 1, 0, 0, 0, 0, 1, 1}
	for i := range want {
		if yb[i] != want[i] {
			t.Fatalf("yb = %v, want %v", yb, want)
		}
	}
}

// TestOperatorMulVecBatchPanicsOnAliasedBuffers pins the tuned operator's
// batched contract: MulVecBatch has no error return, so overlapping xb/yb
// panic instead of corrupting the product.
func TestOperatorMulVecBatchPanicsOnAliasedBuffers(t *testing.T) {
	tn := NewTuner[float64](DefaultModel(), WithThreads(2))
	defer tn.Close()
	a, err := FromEntries(4, 4, diagEntries(4))
	if err != nil {
		t.Fatal(err)
	}
	op, err := tn.Tune(a)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 4*3)
	defer func() {
		if recover() == nil {
			t.Fatal("MulVecBatch with aliased xb and yb did not panic")
		}
	}()
	op.MulVecBatch(buf, buf, 3)
}

// TestOperatorMulVecPanicsOnAliasedVectors pins the tuned operator's
// contract: MulVec has no error return, so an overlapping x/y panics
// instead of corrupting the product.
func TestOperatorMulVecPanicsOnAliasedVectors(t *testing.T) {
	tn := NewTuner[float64](DefaultModel(), WithThreads(2))
	defer tn.Close()
	a, err := FromEntries(4, 4, diagEntries(4))
	if err != nil {
		t.Fatal(err)
	}
	op, err := tn.Tune(a)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec with aliased x and y did not panic")
		}
	}()
	op.MulVec(buf, buf)
}
