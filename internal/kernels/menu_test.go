package kernels

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"smat/internal/matrix"
)

// The kernel menu, pinned: every registered (Name, Format, Strategies), with
// HYB opted in, sorted by name. The tables in this package generate it; names
// are what model.json, features.db.jsonl, the BENCH artifacts, refblas and
// benchmark/ resolve, so a row changes here only when a kernel is
// deliberately added, removed or renamed.
var goldenKernels = []string{
	"coo_basic COO basic",
	"coo_parallel COO parallel+nnzbalance",
	"coo_parallel_unroll4 COO parallel+unroll4+nnzbalance",
	"coo_unroll4 COO unroll4",
	"csr_basic CSR basic",
	"csr_parallel CSR parallel",
	"csr_parallel_nnz CSR parallel+nnzbalance",
	"csr_parallel_nnz_unroll4 CSR parallel+unroll4+nnzbalance",
	"csr_parallel_unroll4 CSR parallel+unroll4",
	"csr_unroll4 CSR unroll4",
	"dia_basic DIA basic",
	"dia_blocked DIA cacheblock",
	"dia_blocked_parallel DIA parallel+cacheblock",
	"dia_parallel DIA parallel+rowmajor",
	"dia_parallel_unroll4 DIA parallel+unroll4+rowmajor",
	"dia_rowmajor DIA rowmajor",
	"dia_unroll4 DIA unroll4",
	"ell_basic ELL basic",
	"ell_parallel ELL parallel+rowmajor",
	"ell_parallel_unroll4 ELL parallel+unroll4+rowmajor",
	"ell_rowmajor ELL rowmajor",
	"ell_unroll4 ELL unroll4",
	"ell_width ELL widthspec",
	"ell_width_parallel ELL parallel+widthspec",
	"hyb_basic HYB basic",
	"hyb_width HYB widthspec",
	"hyb_width_parallel HYB parallel+widthspec",
}

var goldenBatchKernels = []string{
	"coo_batch COO basic",
	"coo_batch_parallel COO parallel+nnzbalance",
	"csr_batch CSR basic",
	"csr_batch_parallel CSR parallel+nnzbalance",
	"dia_batch DIA basic",
	"dia_batch_parallel DIA parallel",
	"ell_batch ELL basic",
	"ell_batch_parallel ELL parallel",
	"hyb_batch HYB basic",
	"hyb_batch_parallel HYB parallel",
}

// allFormats is matrix.Formats plus the opt-in HYB extension format.
var allFormats = append(matrix.Formats[:], matrix.FormatHYB)

func fullLibrary[T matrix.Float]() *Library[T] {
	lib := NewLibrary[T]()
	lib.RegisterHYB()
	return lib
}

func checkGoldenMenu[T matrix.Float](t *testing.T) {
	lib := fullLibrary[T]()
	var single, batch []string
	for _, f := range allFormats {
		for _, k := range lib.ForFormat(f) {
			single = append(single, fmt.Sprintf("%s %s %s", k.Name, k.Format, k.Strategies))
		}
		for _, b := range lib.ForFormatBatch(f) {
			batch = append(batch, fmt.Sprintf("%s %s %s", b.Name, b.Format, b.Strategies))
		}
	}
	slices.Sort(single)
	slices.Sort(batch)
	if !slices.Equal(single, goldenKernels) {
		t.Errorf("single-vector menu changed:\n got %q\nwant %q", single, goldenKernels)
	}
	if !slices.Equal(batch, goldenBatchKernels) {
		t.Errorf("batched menu changed:\n got %q\nwant %q", batch, goldenBatchKernels)
	}
}

func TestGoldenMenu(t *testing.T) {
	t.Run("float64", checkGoldenMenu[float64])
	t.Run("float32", checkGoldenMenu[float32])
}

// TestFamilyTables checks the tables the menu is generated from, row by row:
// every row has a body (a chunk or a hand-written runner, not both) and at
// least one partition, every partition a row is instantiated over selects
// bounds on a partitioned plan of the row's format, and every format has the
// strategy-free anchor the scoreboard and the serving path start from: a
// row instantiated whole, single-vector and batched.
func TestFamilyTables(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	csr := randCSR(rng, 64, 64, 0.2)
	families := []family[float64]{
		csrFamily[float64](), cooFamily[float64](), diaFamily[float64](),
		ellFamily[float64](), hybFamily[float64](),
	}
	covered := map[matrix.Format]bool{}
	for _, fam := range families {
		covered[fam.format] = true
		mat, err := Convert(csr, fam.format, 0)
		if err != nil {
			t.Fatalf("Convert to %v: %v", fam.format, err)
		}
		plan := mat.Partitioned().PlanFor(3)
		if plan.Serial {
			t.Fatalf("%v: forced plan is serial", fam.format)
		}
		for _, ns := range []struct {
			kind string
			rows []body[float64]
		}{
			{"single", fam.single},
			{"batch", fam.batch},
		} {
			anchor := false
			for i := range ns.rows {
				b := &ns.rows[i]
				row := fmt.Sprintf("%v %s row %d (%s)", fam.format, ns.kind, i, b.name+b.suffix)
				if (b.chunk == nil) == (b.run == nil) {
					t.Errorf("%s: want exactly one of chunk and run", row)
				}
				if len(b.over) == 0 {
					t.Errorf("%s: instantiated over no partition", row)
				}
				for _, p := range b.over {
					if p != whole && len(p.bounds(plan)) < 2 {
						t.Errorf("%s: partition %d selects no bounds on a partitioned %v plan", row, p, fam.format)
					}
				}
				if b.strat == 0 && slices.Contains(b.over, whole) {
					anchor = true
				}
			}
			if !anchor {
				t.Errorf("%v: no strategy-free %s row instantiated whole", fam.format, ns.kind)
			}
		}
	}
	for _, f := range allFormats {
		if !covered[f] {
			t.Errorf("format %v has no family table", f)
		}
	}
}
