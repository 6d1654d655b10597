package oracle

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"smat/internal/autotune"
	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// swapBatchWidths are the batch widths CheckConvertSwap drives through the
// operator's tiled SpMM kernel: 3 is one three-column lane, 8 one eight-wide
// lane.
var swapBatchWidths = [...]int{3, 8}

// swapGoroutines hammer the operator through the swap window; swapIters is
// how many products each one computes. The hold channel is released a few
// iterations in, so the swap lands while calls are in flight.
const (
	swapGoroutines = 8
	swapIters      = 60
)

// CheckConvertSwap runs the differential suite for the background-conversion
// swap: an operator tuned with a large iteration hint over a warm decision
// cache must serve correct, deterministic answers before, during, and after
// the atomic engine swap to the target format.
//
// The decision cache is seeded so that the tuner schedules a background
// conversion to target, pinned by TuneOptions.HoldConversion. The properties
// checked, at every thread count in opt.Threads:
//
//  1. Pre-swap the operator serves the tuned-CSR incumbent bit for bit, and
//     that answer — single-vector and batched — is within the rounding bound
//     of the float64 reference.
//  2. Mid-swap — swapGoroutines concurrent callers straddling the moment the
//     hold is released — every MulVec and MulVecBatch result is bit-for-bit
//     one of exactly two vectors: the CSR answer or the target-format answer.
//     Nothing torn, blended, or stale is ever observed.
//  3. Post-swap (after AwaitConversion reports ConvertDone) the operator
//     serves the target format bit for bit.
//
// Both allowed answers are independently tolerance-checked against the
// float64 reference, so "one of the two" can never launder a wrong result.
// A target that the fill guard rejects or that has no registered kernel is
// skipped, mirroring Check's skip rule. The error reports the first violated
// property.
func CheckConvertSwap[T matrix.Float](s *Spec, target matrix.Format, opt Options) error {
	opt = opt.withDefaults()
	ref, err := BuildCSR[T](s)
	if err != nil {
		return err
	}

	lib := kernels.NewLibrary[T]()
	tgtK := lib.Basic(target)
	if tgtK == nil {
		return nil // no kernel registered for the target: nothing to swap to
	}
	tgtMat, err := kernels.Convert(ref, target, opt.MaxFill)
	if errors.Is(err, matrix.ErrFillExplosion) {
		return nil // fill guard rejects the target on this structure: skip
	}
	if err != nil {
		return fmt.Errorf("oracle: %s/%s: convert-swap: convert: %w", s.Name, target, err)
	}

	x := xVector[T](s.Cols)
	x64 := make([]float64, s.Cols)
	for i, v := range x {
		x64[i] = float64(v)
	}
	want, absSum, err := reference(s, x64)
	if err != nil {
		return err
	}
	eps := epsOf[T]() * opt.TolScale

	// The two allowed answers, computed serially and independently of the
	// operator under test. The parallel-bitwise invariant (oracle property 3)
	// makes them the only values any pooled run may produce.
	csrK := lib.Basic(matrix.FormatCSR)
	csrMat := &kernels.Mat[T]{Format: matrix.FormatCSR, CSR: ref}
	yCSR := runNaN(func(y []T) { csrK.Run(csrMat, x, y, 1) }, s.Rows)
	yTgt := runNaN(func(y []T) { tgtK.Run(tgtMat, x, y, 1) }, s.Rows)
	name := fmt.Sprintf("%s/%s", s.Name, target)
	if err := swapRefCheck(ref, yCSR, 1, 0, want, absSum, eps, name+": CSR answer"); err != nil {
		return err
	}
	if err := swapRefCheck(ref, yTgt, 1, 0, want, absSum, eps, name+": target answer"); err != nil {
		return err
	}

	// The allowed post-swap batch answers: the target's tiled kernel, serial.
	tgtB := lib.BatchFor(target)
	ybTgt := make(map[int][]T, len(swapBatchWidths))
	for _, k := range swapBatchWidths {
		xb := replicateColumns(x, k)
		ybTgt[k] = runNaN(func(yb []T) { tgtB.Run(tgtMat, xb, yb, k, 1) }, s.Rows*k)
		if err := swapBatchRefCheck(ref, ybTgt[k], k, want, absSum, eps, name+": target batch answer"); err != nil {
			return err
		}
	}

	for _, th := range opt.Threads {
		if err := checkSwapAtThreads(ref, target, th, opt, x, yCSR, yTgt, ybTgt, want, absSum, eps, name); err != nil {
			return err
		}
	}
	return nil
}

// checkSwapAtThreads runs one full pre/mid/post-swap pass on a fresh tuner
// configured for th threads.
func checkSwapAtThreads[T matrix.Float](ref *matrix.CSR[T], target matrix.Format, th int, opt Options,
	x, yCSR, yTgt []T, ybTgt map[int][]T, want, absSum []float64, eps float64, name string) error {

	// The ruleset never fires, so every decision the seeded cache does not
	// answer would fall through to measurement — which this check never
	// reaches.
	tuner := autotune.New[T](silentModel(th, opt.MaxFill), autotune.Config{Threads: th})
	defer tuner.Close()

	// Seed the decision cache with the target format and synthetic payoff
	// costs whose break-even is 1, so any positive iteration hint schedules
	// the conversion — in the background, pinned by the hold channel.
	fv := features.Extract(ref)
	tuner.Cache().Put(fv.Key(), autotune.CacheEntry{
		Format:       target,
		Confidence:   1,
		Measured:     true,
		ConvertSec:   1e-9,
		SpMVSec:      0.1,
		IncumbentSec: 0.2,
	})

	hold := make(chan struct{})
	op, d, err := tuner.TuneOpts(ref, autotune.TuneOptions{Iterations: 1 << 20, HoldConversion: hold})
	if err != nil {
		return fmt.Errorf("oracle: %s: convert-swap: tune at %d threads: %w", name, th, err)
	}
	if st := op.ConversionState(); st != autotune.ConvertPending {
		return fmt.Errorf("oracle: %s: convert-swap at %d threads: conversion state %v before release, want pending", name, th, st)
	}
	if f := op.Format(); f != matrix.FormatCSR {
		return fmt.Errorf("oracle: %s: convert-swap at %d threads: pre-swap operator serves %v, want CSR incumbent", name, th, f)
	}
	if d.Converted || d.Chosen != target {
		return fmt.Errorf("oracle: %s: convert-swap at %d threads: decision Converted=%v Chosen=%v, want pending %v", name, th, d.Converted, d.Chosen, target)
	}

	rows := len(yCSR)

	// Property 1: the very first calls — tune just returned, conversion still
	// held — serve the CSR incumbent bit for bit.
	yPre := runNaN(func(y []T) { op.MulVec(x, y) }, rows)
	if r, bad := bitMismatch(yCSR, yPre); bad {
		return fmt.Errorf("oracle: %s: convert-swap at %d threads: pre-swap y[%d] = %g, CSR answer %g",
			name, th, r, float64(yPre[r]), float64(yCSR[r]))
	}
	// Batched: the incumbent's tiled answers, recorded now, are the CSR side
	// of property 2.
	ybCSR := make(map[int][]T, len(swapBatchWidths))
	for _, k := range swapBatchWidths {
		xb := replicateColumns(x, k)
		ybCSR[k] = runNaN(func(yb []T) { op.MulVecBatch(xb, yb, k) }, rows*k)
		if err := swapBatchRefCheck(ref, ybCSR[k], k, want, absSum, eps,
			fmt.Sprintf("%s: pre-swap batch k=%d at %d threads", name, k, th)); err != nil {
			return err
		}
	}

	// Property 2: hammer the operator through the swap window. Goroutine 0
	// releases the hold a few iterations in; every observed result must be
	// bit-for-bit one of the two allowed answers.
	var (
		wg      sync.WaitGroup
		release sync.Once
		errCh   = make(chan error, swapGoroutines)
	)
	releaseHold := func() { release.Do(func() { close(hold) }) }
	for g := 0; g < swapGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 0 {
				defer releaseHold() // never leave AwaitConversion hanging
			}
			y := make([]T, rows)
			xbs := make(map[int][]T, len(swapBatchWidths))
			ybs := make(map[int][]T, len(swapBatchWidths))
			for _, k := range swapBatchWidths {
				xbs[k] = replicateColumns(x, k)
				ybs[k] = make([]T, rows*k)
			}
			for i := 0; i < swapIters; i++ {
				if g == 0 && i == 10 {
					releaseHold()
				}
				if i%3 == 0 {
					op.MulVec(x, y)
					if r, ok := matchEither(y, yCSR, yTgt); !ok {
						errCh <- fmt.Errorf("oracle: %s: convert-swap at %d threads: mid-swap y[%d] = %g matches neither the CSR answer %g nor the target answer %g",
							name, th, r, float64(y[r]), float64(yCSR[r]), float64(yTgt[r]))
						return
					}
					continue
				}
				k := swapBatchWidths[i%3-1]
				op.MulVecBatch(xbs[k], ybs[k], k)
				if r, ok := matchEither(ybs[k], ybCSR[k], ybTgt[k]); !ok {
					errCh <- fmt.Errorf("oracle: %s: convert-swap at %d threads: mid-swap batch k=%d yb[%d] = %g matches neither the CSR nor the target answer",
						name, th, k, r, float64(ybs[k][r]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if st := op.AwaitConversion(); st != autotune.ConvertDone {
		return fmt.Errorf("oracle: %s: convert-swap at %d threads: conversion settled as %v, want done", name, th, st)
	}
	for err := range errCh {
		if err != nil {
			return err
		}
	}

	// Property 3: the swap landed; the operator serves the target format bit
	// for bit from here on.
	if f := op.Format(); f != target {
		return fmt.Errorf("oracle: %s: convert-swap at %d threads: post-swap operator serves %v", name, th, f)
	}
	yPost := runNaN(func(y []T) { op.MulVec(x, y) }, rows)
	if r, bad := bitMismatch(yTgt, yPost); bad {
		return fmt.Errorf("oracle: %s: convert-swap at %d threads: post-swap y[%d] = %g, target answer %g",
			name, th, r, float64(yPost[r]), float64(yTgt[r]))
	}
	for _, k := range swapBatchWidths {
		xb := replicateColumns(x, k)
		yb := runNaN(func(yb []T) { op.MulVecBatch(xb, yb, k) }, rows*k)
		if r, bad := bitMismatch(ybTgt[k], yb); bad {
			return fmt.Errorf("oracle: %s: convert-swap at %d threads: post-swap batch k=%d yb[%d] = %g, target answer %g",
				name, th, k, r, float64(yb[r]), float64(ybTgt[k][r]))
		}
	}
	return nil
}

// replicateColumns interleaves k identical copies of v into the batched
// layout: out[c*k+j] = v[c].
func replicateColumns[T matrix.Float](v []T, k int) []T {
	out := make([]T, len(v)*k)
	for c, val := range v {
		for j := 0; j < k; j++ {
			out[c*k+j] = val
		}
	}
	return out
}

// matchEither reports whether got is bit-for-bit equal to a or to b; on
// failure it returns an index where got differs from b (for the error
// message).
func matchEither[T matrix.Float](got, a, b []T) (int, bool) {
	if _, bad := bitMismatch(a, got); !bad {
		return -1, true
	}
	r, bad := bitMismatch(b, got)
	if !bad {
		return -1, true
	}
	return r, false
}

// swapRefCheck verifies one strided result vector (element r at y[r*stride+
// off]) against the float64 reference within the per-row rounding bound.
func swapRefCheck[T matrix.Float](ref *matrix.CSR[T], y []T, stride, off int, want, absSum []float64, eps float64, what string) error {
	for r := range want {
		got := float64(y[r*stride+off])
		if math.IsNaN(got) {
			return fmt.Errorf("oracle: %s: y[%d] unwritten (NaN sentinel survived)", what, r)
		}
		deg := ref.RowDegree(r)
		if diff := math.Abs(got - want[r]); diff > rowTolerance(eps, deg, absSum[r], want[r]) {
			return fmt.Errorf("oracle: %s: y[%d] = %g, reference %g (|diff| %g, deg %d)",
				what, r, got, want[r], diff, deg)
		}
	}
	return nil
}

// swapBatchRefCheck verifies every column of an interleaved batch result
// against the float64 reference (all columns share the same input vector).
func swapBatchRefCheck[T matrix.Float](ref *matrix.CSR[T], yb []T, k int, want, absSum []float64, eps float64, what string) error {
	for j := 0; j < k; j++ {
		if err := swapRefCheck(ref, yb, k, j, want, absSum, eps, fmt.Sprintf("%s col %d", what, j)); err != nil {
			return err
		}
	}
	return nil
}

// CheckProduct verifies y = m·x row by row against a float64 product
// accumulated serially straight off m's arrays, within the per-row rounding
// bound; a NaN in y is an element nothing wrote (poison y first). It is the
// check for a caller that produced y its own way — through a tuner, a
// remembered structure, a forced collision — and wants the suite's verdict on
// it.
func CheckProduct[T matrix.Float](m *matrix.CSR[T], x, y []T, what string) error {
	want, absSum := make([]float64, m.Rows), make([]float64, m.Rows)
	for r := range want {
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			p := float64(m.Vals[jj]) * float64(x[m.ColIdx[jj]])
			want[r] += p
			absSum[r] += math.Abs(p)
		}
	}
	return swapRefCheck(m, y, 1, 0, want, absSum, epsOf[T](), what)
}
