package oracle

import (
	"maps"
	"math"
	"strings"
	"testing"

	"smat/internal/kernels"
	"smat/internal/matrix"
)

// fullLibrary is the complete registry under test: the 30 stock kernels
// plus the HYB extension family.
func fullLibrary[T matrix.Float]() *kernels.Library[T] {
	lib := kernels.NewLibrary[T]()
	lib.RegisterHYB()
	return lib
}

// merge folds one spec's coverage into the suite's.
func merge(cov, c *Coverage) {
	maps.Copy(cov.Formats, c.Formats)
	maps.Copy(cov.Kernels, c.Kernels)
	maps.Copy(cov.Parallel, c.Parallel)
	maps.Copy(cov.Plans, c.Plans)
}

// allFormats mirrors the exported format set the acceptance criterion
// names: the four basic formats plus the HYB extension.
var allFormats = []matrix.Format{
	matrix.FormatCSR, matrix.FormatCOO, matrix.FormatDIA, matrix.FormatELL,
	matrix.FormatHYB,
}

func runSuite[T matrix.Float](t *testing.T) {
	lib := fullLibrary[T]()
	cov := NewCoverage()
	for _, s := range Specs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			c, err := Check(lib, &s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			merge(cov, c)
		})
	}

	// The suite is only as good as its reach: every exported format must
	// have converted somewhere, every registered kernel must have executed,
	// and every parallel-strategy kernel must have run a genuinely
	// partitioned plan (not just its serial fallback body).
	for _, f := range allFormats {
		if !cov.Formats[f] {
			t.Errorf("format %s never exercised", f)
		}
	}
	for _, f := range allFormats {
		for _, k := range lib.ForFormat(f) {
			if !cov.Kernels[k.Name] {
				t.Errorf("kernel %s never executed", k.Name)
			}
			if k.Strategies&kernels.StratParallel != 0 && !cov.Parallel[k.Name] {
				t.Errorf("parallel kernel %s never ran a partitioned plan", k.Name)
			}
		}
	}

	// Every shape of plan the engine picks on its own must have run above
	// one thread: the serial body under the cutoff, a full partition, and
	// HYB's parallel ELL phase with a serial and with a partitioned tail.
	for _, shape := range []string{PlanSerial, PlanPartitioned, PlanTailSerial, PlanTailPartitioned} {
		if !cov.Plans[shape] {
			t.Errorf("no spec ran a %s engine plan above one thread", shape)
		}
	}
}

func TestOracleSuiteFloat64(t *testing.T) { runSuite[float64](t) }
func TestOracleSuiteFloat32(t *testing.T) { runSuite[float32](t) }

// runBatchSuite is the batched analogue: every spec through CheckBatch,
// then the same reach assertions over the batch-kernel registry — every
// registered batch kernel executed at every width, and every parallel batch
// kernel ran a genuinely partitioned plan somewhere in the sweep.
func runBatchSuite[T matrix.Float](t *testing.T) {
	lib := fullLibrary[T]()
	cov := NewCoverage()
	for _, s := range Specs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			c, err := CheckBatch(lib, &s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			merge(cov, c)
		})
	}
	for _, f := range allFormats {
		for _, bk := range lib.ForFormatBatch(f) {
			if !cov.Kernels[bk.Name] {
				t.Errorf("batch kernel %s never executed", bk.Name)
			}
			if bk.Strategies&kernels.StratParallel != 0 && !cov.Parallel[bk.Name] {
				t.Errorf("parallel batch kernel %s never ran a partitioned plan", bk.Name)
			}
		}
	}
}

func TestOracleBatchSuiteFloat64(t *testing.T) { runBatchSuite[float64](t) }
func TestOracleBatchSuiteFloat32(t *testing.T) { runBatchSuite[float32](t) }

func TestCheckRejectsOutOfRangeSpec(t *testing.T) {
	s := &Spec{Name: "bad", Rows: 2, Cols: 2,
		Triples: []matrix.Triple[float64]{{Row: 5, Col: 0, Val: 1}}}
	if _, err := Check(fullLibrary[float64](), s, Options{}); err == nil {
		t.Fatal("out-of-range spec accepted")
	}
}

func TestCheckBounds(t *testing.T) {
	if err := checkBounds([]int{0, 3, 7}, 7, "b"); err != nil {
		t.Errorf("valid bounds rejected: %v", err)
	}
	for name, c := range map[string]struct {
		b []int
		n int
	}{
		"wrong-end":    {[]int{0, 3}, 7},
		"wrong-start":  {[]int{1, 7}, 7},
		"non-monotone": {[]int{0, 5, 3, 7}, 7},
		"too-short":    {[]int{0}, 0},
	} {
		if err := checkBounds(c.b, c.n, "b"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckRowAligned(t *testing.T) {
	rowIdx := []int{0, 0, 1, 1, 2, 2}
	if err := checkRowAligned([]int{0, 2, 4, 6}, rowIdx); err != nil {
		t.Errorf("row-aligned cuts rejected: %v", err)
	}
	if err := checkRowAligned([]int{0, 3, 6}, rowIdx); err == nil {
		t.Error("cut through row 1 accepted")
	}
}

func TestRunNaNSentinel(t *testing.T) {
	y := runNaN(func(y []float64) { y[0] = 1 }, 3)
	if y[0] != 1 || !math.IsNaN(y[1]) || !math.IsNaN(y[2]) {
		t.Fatalf("sentinel state wrong: %v", y)
	}
}

func TestBitMismatch(t *testing.T) {
	if _, ok := bitMismatch([]float64{1, 2}, []float64{1, 2}); ok {
		t.Error("equal vectors reported mismatched")
	}
	if i, ok := bitMismatch([]float64{1, 2}, []float64{1, 3}); !ok || i != 1 {
		t.Errorf("mismatch at 1 reported as (%d,%v)", i, ok)
	}
	nan := math.NaN()
	if _, ok := bitMismatch([]float64{nan}, []float64{nan}); ok {
		t.Error("NaN pair reported mismatched")
	}
}

func TestDecodeSpecBoundedAndTotal(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{0, 9},
		{9, 0},
		{255, 255},
		{48, 48, 200, 200, 128, 7, 7, 0},
		[]byte(strings.Repeat("\xff", 4096)),
	}
	for _, data := range cases {
		s := DecodeSpec(data)
		if s.Rows < 0 || s.Rows > decodeMaxDim || s.Cols < 0 || s.Cols > decodeMaxDim {
			t.Fatalf("decoded dims %dx%d out of bounds", s.Rows, s.Cols)
		}
		if len(s.Triples) > decodeMaxNNZ {
			t.Fatalf("decoded %d triples", len(s.Triples))
		}
		for _, tr := range s.Triples {
			if tr.Row < 0 || tr.Row >= s.Rows || tr.Col < 0 || tr.Col >= s.Cols {
				t.Fatalf("decoded triple (%d,%d) outside %dx%d", tr.Row, tr.Col, s.Rows, s.Cols)
			}
		}
		if _, err := Check(fullLibrary[float64](), s, Options{Threads: []int{1, 2}}); err != nil {
			t.Fatalf("decoded spec fails oracle: %v", err)
		}
	}
}

// TestSpecsCoverParallelCutoff pins the suite's reach: at least three specs
// must exceed the engine's serial-work cutoff, or the "parallel paths
// genuinely run" guarantee silently erodes when the cutoff moves.
func TestSpecsCoverParallelCutoff(t *testing.T) {
	big := 0
	for _, s := range Specs() {
		if len(s.Triples) >= 8192 {
			big++
		}
	}
	if big < 3 {
		t.Fatalf("only %d specs exceed the parallel cutoff", big)
	}
}
