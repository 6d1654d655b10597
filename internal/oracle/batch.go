package oracle

import (
	"errors"
	"fmt"
	"math"

	"smat/internal/autotune"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// batchWidths is the batch-width sweep every CheckBatch run walks: the
// degenerate widths (0 = no-op, 1 = single-vector equivalence), widths
// straddling the register tile (5, 7), and full multiples of it.
var batchWidths = []int{0, 1, 2, 5, 7, 8}

// xBatch builds k deterministic input columns, phase-shifted per column so a
// kernel mixing up batch lanes produces a visibly different product, and
// packs them into the interleaved layout (xb[c*k+j] = column j, element c).
func xBatch[T matrix.Float](cols, k int) (xb []T, cols64 [][]float64) {
	xb = make([]T, cols*k)
	cols64 = make([][]float64, k)
	for j := 0; j < k; j++ {
		cols64[j] = make([]float64, cols)
		for c := 0; c < cols; c++ {
			v := float64(((c+5*j)*13)%31-15) / 8
			if v == 0 {
				v = 0.375
			}
			xb[c*k+j] = T(v)
			cols64[j][c] = float64(T(v))
		}
	}
	return xb, cols64
}

// CheckBatch runs the differential suite over the batched (multi-vector)
// kernels for one spec: for every format that converts within the fill
// bound and every registered batch kernel of that format, each column of
// the serial batched product is checked against an independent float64
// reference SpMV of that input column, and the spawned and pooled parallel
// paths must agree with the serial batched result bit for bit at every
// thread count. Width 0 must be a no-op and width 1 must satisfy the same
// per-column bound as any other width. Then the same sweep runs through a
// tuned operator of every stock format at every thread count
// (checkOperatorBatch). The returned Coverage reports which batch kernels
// executed and which ran genuinely partitioned plans.
func CheckBatch[T matrix.Float](lib *kernels.Library[T], s *Spec, opt Options) (*Coverage, error) {
	opt = opt.withDefaults()
	cov := NewCoverage()

	ref, err := BuildCSR[T](s)
	if err != nil {
		return cov, err
	}
	eps := epsOf[T]() * opt.TolScale

	// Per-column float64 references, shared across formats and kernels.
	maxK := 0
	for _, k := range batchWidths {
		if k > maxK {
			maxK = k
		}
	}
	_, cols64 := xBatch[T](s.Cols, maxK)
	want := make([][]float64, maxK)
	absSum := make([][]float64, maxK)
	for j := 0; j < maxK; j++ {
		if want[j], absSum[j], err = reference(s, cols64[j]); err != nil {
			return cov, err
		}
	}

	pools := make(map[int]*kernels.Pool[T], len(opt.Threads))
	for _, th := range opt.Threads {
		if _, ok := pools[th]; !ok {
			pools[th] = kernels.NewPool[T](th)
		}
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()

	for _, f := range checkFormats {
		mat, err := kernels.ConvertFrom(ref, nil, f, opt.MaxFill)
		if errors.Is(err, matrix.ErrFillExplosion) {
			continue
		}
		if err != nil {
			return cov, fmt.Errorf("oracle: %s/%s: convert: %w", s.Name, f, err)
		}
		for _, bk := range lib.ForFormatBatch(f) {
			if err := checkBatchKernel(bk, mat, ref, want, absSum, eps, opt, pools, cov, s.Name); err != nil {
				return cov, err
			}
		}
		cov.Formats[f] = true
	}
	for _, th := range opt.Threads {
		if err := checkOperatorBatch(ref, th, want, absSum, eps, opt, s.Name); err != nil {
			return cov, err
		}
	}
	return cov, nil
}

// silentModel is a model whose ruleset never fires: a tuner built on it
// decides nothing by itself, so a check that forces the format or seeds the
// decision cache controls exactly what the operator serves.
func silentModel(threads int, maxFill float64) *autotune.Model {
	return autotune.NewModel(0.5, maxFill, autotune.ModelClass{
		Threads: threads,
		Kernels: map[string]string{},
		Ruleset: &mining.Ruleset{Default: int(matrix.FormatCSR)},
	})
}

// checkBatchColumns holds every column of one interleaved batch product to
// its float64 reference, within the per-row rounding bound.
func checkBatchColumns[T matrix.Float](ref *matrix.CSR[T], yb []T, k int, want, absSum [][]float64, eps float64, what string) error {
	for j := 0; j < k; j++ {
		for r := 0; r < ref.Rows; r++ {
			got := float64(yb[r*k+j])
			if math.IsNaN(got) {
				return fmt.Errorf("oracle: %s: k=%d y[%d][col %d] unwritten (NaN sentinel survived)", what, k, r, j)
			}
			deg := ref.RowDegree(r)
			tol := rowTolerance(eps, deg, absSum[j][r], want[j][r])
			if diff := math.Abs(got - want[j][r]); diff > tol {
				return fmt.Errorf("oracle: %s: k=%d y[%d][col %d] = %g, reference %g (|diff| %g > tol %g, deg %d)",
					what, k, r, j, got, want[j][r], diff, tol, deg)
			}
		}
	}
	return nil
}

// checkOperatorBatch drives the width sweep through Operator.MulVecBatch —
// the tuned single-vector kernel at k = 1, the format's tiled kernel above —
// for every stock format the spec converts to, on a tuner at th threads.
func checkOperatorBatch[T matrix.Float](ref *matrix.CSR[T], th int, want, absSum [][]float64, eps float64,
	opt Options, spec string) error {

	tuner := autotune.New[T](silentModel(th, opt.MaxFill), autotune.Config{Threads: th, CacheSize: -1})
	defer tuner.Close()
	for _, f := range matrix.Formats {
		op, _, err := tuner.TuneOpts(ref, autotune.TuneOptions{FormatHint: f, HasFormatHint: true})
		if errors.Is(err, matrix.ErrFillExplosion) {
			continue
		}
		name := fmt.Sprintf("%s/%s operator at %d threads", spec, f, th)
		if err != nil {
			return fmt.Errorf("oracle: %s: tune: %w", name, err)
		}
		for _, k := range batchWidths {
			xb, _ := xBatch[T](ref.Cols, k)
			yb := runNaN(func(yb []T) { op.MulVecBatch(xb, yb, k) }, ref.Rows*k)
			if err := checkBatchColumns(ref, yb, k, want, absSum, eps, name); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkBatchKernel runs one batch kernel through the width sweep.
func checkBatchKernel[T matrix.Float](bk *kernels.BatchKernel[T], mat *kernels.Mat[T], ref *matrix.CSR[T],
	want, absSum [][]float64, eps float64, opt Options,
	pools map[int]*kernels.Pool[T], cov *Coverage, spec string) error {

	cov.Kernels[bk.Name] = true
	rows := ref.Rows

	for _, k := range batchWidths {
		if k == 0 {
			// Width 0: no output element may be touched.
			sentinel := []T{42, 42, 42}
			bk.Run(mat, nil, sentinel[:0], 0, 2)
			bk.RunPooled(mat, nil, sentinel[:0], 0, pools[opt.Threads[0]])
			for i, v := range sentinel {
				if v != 42 {
					return fmt.Errorf("oracle: %s/%s: k=0 wrote output[%d]", spec, bk.Name, i)
				}
			}
			continue
		}
		xb, _ := xBatch[T](ref.Cols, k)

		ySerial := runNaN(func(yb []T) { bk.Run(mat, xb, yb, k, 1) }, rows*k)

		// Property 1 (batched): column j of the serial product within the
		// per-row rounding bound of that column's float64 reference.
		if err := checkBatchColumns(ref, ySerial, k, want, absSum, eps, spec+"/"+bk.Name); err != nil {
			return err
		}

		// Property 3 (batched): spawned and pooled execution agree with the
		// serial batched result bit for bit at every thread count, under
		// the engine's own plan and, where that leaves something unsplit,
		// under the forced partition.
		forced := mat.Partitioned()
		for _, th := range opt.Threads {
			plan := mat.PlanForBatch(th, k)
			handles := []*kernels.Mat[T]{mat}
			if th > 1 && (plan.Serial || plan.TailSerial) {
				handles = append(handles, forced)
			}
			for _, h := range handles {
				what := "engine plan"
				if h == forced {
					what = "forced partition"
				}
				ySpawn := runNaN(func(yb []T) { bk.Run(h, xb, yb, k, th) }, rows*k)
				if i, ok := bitMismatch(ySerial, ySpawn); ok {
					return fmt.Errorf("oracle: %s/%s: k=%d spawned run (%s) at %d threads differs from serial at yb[%d]: %g vs %g",
						spec, bk.Name, k, what, th, i, float64(ySpawn[i]), float64(ySerial[i]))
				}
				yPooled := runNaN(func(yb []T) { bk.RunPooled(h, xb, yb, k, pools[th]) }, rows*k)
				if i, ok := bitMismatch(ySerial, yPooled); ok {
					return fmt.Errorf("oracle: %s/%s: k=%d pooled run (%s) at %d threads differs from serial at yb[%d]: %g vs %g",
						spec, bk.Name, k, what, th, i, float64(yPooled[i]), float64(ySerial[i]))
				}
			}
			cov.notePlan(plan, mat.Format)
			if th > 1 && !plan.Serial {
				cov.Parallel[bk.Name] = true
			}
		}
	}
	return nil
}
