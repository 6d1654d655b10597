package oracle

import (
	"errors"
	"fmt"
	"math"

	"smat/internal/kernels"
	"smat/internal/matrix"
)

// Options configures one oracle run.
type Options struct {
	// Threads lists the thread counts every kernel is executed at (on top
	// of the always-run serial pass). Default: 1, 2, 3 and 8 — odd counts
	// catch remainder-chunk bugs that powers of two hide.
	Threads []int
	// MaxFill bounds DIA/ELL zero-fill as a multiple of NNZ; formats
	// rejected by the fill guard are skipped, not failed. Default 8.
	MaxFill float64
	// TolScale scales the per-row rounding bound (default 1). It exists for
	// callers probing the bound itself; the suite runs at 1.
	TolScale float64
}

func (o Options) withDefaults() Options {
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 3, 8}
	}
	if o.MaxFill == 0 {
		o.MaxFill = 8
	}
	if o.TolScale == 0 {
		o.TolScale = 1
	}
	return o
}

// Coverage records what one or more Check calls actually exercised, so the
// suite can assert "every registered kernel, every format, parallel paths
// included" instead of trusting the case list.
type Coverage struct {
	// Formats holds every format that converted successfully.
	Formats map[matrix.Format]bool
	// Kernels holds every kernel name that executed.
	Kernels map[string]bool
	// Parallel holds every kernel name that executed a genuinely
	// partitioned (non-serial) plan of the engine's own choosing.
	Parallel map[string]bool
	// Plans holds the shapes of the engine's own plans that ran above one
	// thread: PlanSerial (under the cutoff), PlanPartitioned, and for HYB
	// PlanTailSerial (parallel ELL phase, serial COO tail) and
	// PlanTailPartitioned.
	Plans map[string]bool
}

// NewCoverage returns an empty coverage accumulator.
func NewCoverage() *Coverage {
	return &Coverage{
		Formats:  make(map[matrix.Format]bool),
		Kernels:  make(map[string]bool),
		Parallel: make(map[string]bool),
		Plans:    make(map[string]bool),
	}
}

// The plan shapes Coverage.Plans records.
const (
	PlanSerial          = "serial"
	PlanPartitioned     = "partitioned"
	PlanTailSerial      = "hyb-tail-serial"
	PlanTailPartitioned = "hyb-tail-partitioned"
)

// notePlan records the shape of one of the engine's own plans.
func (c *Coverage) notePlan(p *kernels.Plan, f matrix.Format) {
	switch {
	case p.Threads <= 1:
	case p.Serial:
		c.Plans[PlanSerial] = true
	case f == matrix.FormatHYB && p.TailSerial:
		c.Plans[PlanTailSerial] = true
	case f == matrix.FormatHYB:
		c.Plans[PlanTailPartitioned] = true
	default:
		c.Plans[PlanPartitioned] = true
	}
}

// xVector builds the deterministic input vector: values on the exact k/8
// grid, never zero, varying with the index so a kernel reading the wrong
// column produces a visibly different product.
func xVector[T matrix.Float](cols int) []T {
	x := make([]T, cols)
	for c := range x {
		v := float64((c*13)%31-15) / 8
		if v == 0 {
			v = 0.375
		}
		x[c] = T(v)
	}
	return x
}

// reference computes want = A·x and the per-row absolute sums Σ|aᵣₖ·xₖ| in
// float64, independently of every code path under test. Small shapes expand
// through the dense representation (the pure-Go dense reference); large
// ones accumulate straight off the spec's triples, still in float64.
func reference(s *Spec, x64 []float64) (want, absSum []float64, err error) {
	want = make([]float64, s.Rows)
	absSum = make([]float64, s.Rows)
	for _, t := range s.Triples {
		if t.Row < 0 || t.Row >= s.Rows || t.Col < 0 || t.Col >= s.Cols {
			return nil, nil, fmt.Errorf("oracle: spec %q triple (%d,%d) outside %dx%d",
				s.Name, t.Row, t.Col, s.Rows, s.Cols)
		}
		absSum[t.Row] += math.Abs(t.Val * x64[t.Col])
	}
	if s.Rows*s.Cols <= 1<<20 && s.Rows > 0 && s.Cols > 0 {
		d := matrix.NewDense[float64](s.Rows, s.Cols)
		for _, t := range s.Triples {
			d.Set(t.Row, t.Col, d.At(t.Row, t.Col)+t.Val)
		}
		d.MulVec(x64, want)
		return want, absSum, nil
	}
	for _, t := range s.Triples {
		want[t.Row] += t.Val * x64[t.Col]
	}
	return want, absSum, nil
}

// checkFormats is the format list one Check call walks: the four basic
// formats plus the opt-in extensions. Extension formats without registered
// kernels still get their conversion, Validate and round-trip checks.
var checkFormats = []matrix.Format{
	matrix.FormatCSR, matrix.FormatCOO, matrix.FormatDIA, matrix.FormatELL,
	matrix.FormatHYB,
}

// Check runs the full differential suite for one spec against one kernel
// library: for every format that converts within the fill bound, it checks
// Validate and the CSR round trip, the plan partition at every thread
// count, and for every registered kernel of the format the serial result
// against the float64 reference plus bit-for-bit agreement of the
// caller-run and pooled parallel paths with the serial one. The returned Coverage
// reports what actually ran; the first violated property is returned as an
// error.
func Check[T matrix.Float](lib *kernels.Library[T], s *Spec, opt Options) (*Coverage, error) {
	opt = opt.withDefaults()
	cov := NewCoverage()

	ref, err := BuildCSR[T](s)
	if err != nil {
		return cov, err
	}
	if err := ref.Validate(); err != nil {
		return cov, fmt.Errorf("oracle: %s: assembled CSR invalid: %w", s.Name, err)
	}

	x := xVector[T](s.Cols)
	x64 := make([]float64, s.Cols)
	for i, v := range x {
		x64[i] = float64(v)
	}
	want, absSum, err := reference(s, x64)
	if err != nil {
		return cov, err
	}
	eps := epsOf[T]() * opt.TolScale

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
		if err := checkConverted(lib, mat, ref, x, want, absSum, eps, opt, pools, cov, s.Name, f); err != nil {
			return cov, err
		}
		cov.Formats[f] = true
	}
	return cov, nil
}

// checkConverted runs one converted representation through the invariant,
// round-trip, plan and kernel checks.
func checkConverted[T matrix.Float](lib *kernels.Library[T], mat *kernels.Mat[T], ref *matrix.CSR[T],
	x []T, want, absSum []float64, eps float64, opt Options,
	pools map[int]*kernels.Pool[T], cov *Coverage, spec string, f matrix.Format) error {

	// Property 2: the converted representation satisfies its own
	// invariants and converts back to exactly the source matrix.
	if err := mat.Validate(); err != nil {
		return fmt.Errorf("oracle: %s/%s: converted representation invalid: %w", spec, f, err)
	}
	if back := mat.ToCSR(); !ref.Equal(back) {
		return fmt.Errorf("oracle: %s/%s: round trip changed the matrix", spec, f)
	}

	// Every plan partition must tile its work range exactly: the plan the
	// engine picks, and the one a Partitioned handle forces on every spec
	// however small, so the parallel paths are checked on the degenerate
	// shapes too.
	forced := mat.Partitioned()
	for _, th := range opt.Threads {
		for _, h := range []*kernels.Mat[T]{mat, forced} {
			if err := checkPlan(h.PlanFor(th), h, th); err != nil {
				return fmt.Errorf("oracle: %s/%s: %w", spec, f, err)
			}
		}
		cov.notePlan(mat.PlanFor(th), f)
	}

	for _, k := range lib.ForFormat(f) {
		if err := checkKernel(k, mat, ref, x, want, absSum, eps, opt, pools, cov, spec); err != nil {
			return err
		}
	}
	return nil
}

// checkKernel runs one kernel through the serial reference comparison and
// the parallel bitwise agreement checks.
func checkKernel[T matrix.Float](k *kernels.Kernel[T], mat *kernels.Mat[T], ref *matrix.CSR[T],
	x []T, want, absSum []float64, eps float64, opt Options,
	pools map[int]*kernels.Pool[T], cov *Coverage, spec string) error {

	cov.Kernels[k.Name] = true
	rows := len(want)

	ySerial := runNaN(func(y []T) { k.Run(mat, x, y, 1) }, rows)

	// Property 1: serial result within the per-row rounding bound of the
	// float64 reference; NaN means an element was never written. The row
	// degree scaling the bound comes from the source CSR: padding slots in
	// other formats multiply by an exact zero and add no rounding.
	for r := 0; r < rows; r++ {
		got := float64(ySerial[r])
		if math.IsNaN(got) {
			return fmt.Errorf("oracle: %s/%s: y[%d] unwritten (NaN sentinel survived)", spec, k.Name, r)
		}
		deg := ref.RowDegree(r)
		if diff := math.Abs(got - want[r]); diff > rowTolerance(eps, deg, absSum[r], want[r]) {
			return fmt.Errorf("oracle: %s/%s: y[%d] = %g, reference %g (|diff| %g > tol %g, deg %d)",
				spec, k.Name, r, got, want[r], diff, rowTolerance(eps, deg, absSum[r], want[r]), deg)
		}
	}

	// Property 3: caller-run and pooled execution agree with serial bit for
	// bit at every thread count (all partitions split on row boundaries, so
	// per-element accumulation order is identical by construction).
	// Under the plan the engine picks and, where that plan leaves something
	// unsplit — the whole matrix below its cutoff, a short HYB tail — also
	// under the forced partition, which splits even the degenerate shapes.
	forced := mat.Partitioned()
	for _, th := range opt.Threads {
		handles := []*kernels.Mat[T]{mat}
		if p := mat.PlanFor(th); th > 1 && (p.Serial || p.TailSerial) {
			handles = append(handles, forced)
		}
		for _, h := range handles {
			what := "engine plan"
			if h == forced {
				what = "forced partition"
			}
			yCaller := runNaN(func(y []T) { k.Run(h, x, y, th) }, rows)
			if r, ok := bitMismatch(ySerial, yCaller); ok {
				return fmt.Errorf("oracle: %s/%s: caller-run (%s) at %d threads differs from serial at y[%d]: %g vs %g",
					spec, k.Name, what, th, r, float64(yCaller[r]), float64(ySerial[r]))
			}
			yPooled := runNaN(func(y []T) { k.RunPooled(h, x, y, pools[th]) }, rows)
			if r, ok := bitMismatch(ySerial, yPooled); ok {
				return fmt.Errorf("oracle: %s/%s: pooled run (%s) at %d threads differs from serial at y[%d]: %g vs %g",
					spec, k.Name, what, th, r, float64(yPooled[r]), float64(ySerial[r]))
			}
		}
		if th > 1 && !mat.PlanFor(th).Serial {
			cov.Parallel[k.Name] = true
		}
	}
	return nil
}

// runNaN executes one SpMV into a NaN-prefilled vector, so elements the
// kernel fails to write survive as NaN sentinels instead of accidental
// zeros.
func runNaN[T matrix.Float](run func(y []T), rows int) []T {
	y := make([]T, rows)
	nan := T(math.NaN())
	for i := range y {
		y[i] = nan
	}
	run(y)
	return y
}

// bitMismatch returns the first index where the two vectors differ bit for
// bit (two NaNs count as equal — both already fail the reference check).
func bitMismatch[T matrix.Float](a, b []T) (int, bool) {
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(float64(a[i])) && math.IsNaN(float64(b[i]))) {
			return i, true
		}
	}
	return -1, false
}

// checkPlan verifies a plan partitions its work range exactly: bounds start
// at zero, end at the full range, never step backwards, and COO entry
// bounds fall on row boundaries (the no-cross-chunk-write guarantee every
// parallel COO kernel relies on).
func checkPlan[T matrix.Float](p *kernels.Plan, m *kernels.Mat[T], threads int) error {
	if p.Threads != threads {
		return fmt.Errorf("plan for %d threads reports Threads=%d", threads, p.Threads)
	}
	if p.Serial {
		return nil
	}
	rows, _ := m.Dims()
	switch m.Format {
	case matrix.FormatCSR:
		if err := checkBounds(p.RowBounds, rows, "RowBounds"); err != nil {
			return err
		}
		return checkBounds(p.NNZBounds, rows, "NNZBounds")
	case matrix.FormatCOO:
		if err := checkBounds(p.EntryBounds, m.COO.NNZ(), "EntryBounds"); err != nil {
			return err
		}
		return checkRowAligned(p.EntryBounds, m.COO.RowIdx)
	case matrix.FormatDIA, matrix.FormatELL:
		return checkBounds(p.RowBounds, rows, "RowBounds")
	case matrix.FormatHYB:
		if err := checkBounds(p.RowBounds, m.HYB.ELL.Rows, "RowBounds"); err != nil {
			return err
		}
		if p.TailSerial {
			return nil
		}
		if err := checkBounds(p.EntryBounds, m.HYB.COO.NNZ(), "EntryBounds"); err != nil {
			return err
		}
		return checkRowAligned(p.EntryBounds, m.HYB.COO.RowIdx)
	}
	return fmt.Errorf("plan check: unknown format %v", m.Format)
}

func checkBounds(b []int, n int, name string) error {
	if len(b) < 2 {
		return fmt.Errorf("plan %s has %d bounds", name, len(b))
	}
	if b[0] != 0 || b[len(b)-1] != n {
		return fmt.Errorf("plan %s spans [%d,%d), want [0,%d)", name, b[0], b[len(b)-1], n)
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			return fmt.Errorf("plan %s not monotone at %d", name, i)
		}
	}
	return nil
}

// checkRowAligned verifies no entry chunk boundary splits a row: the entry
// before each interior boundary belongs to a different row than the entry
// after it.
func checkRowAligned(b []int, rowIdx []int) error {
	for i := 1; i < len(b)-1; i++ {
		cut := b[i]
		if cut <= 0 || cut >= len(rowIdx) {
			continue
		}
		if rowIdx[cut-1] == rowIdx[cut] {
			return fmt.Errorf("plan EntryBounds cut %d splits row %d", cut, rowIdx[cut])
		}
	}
	return nil
}
