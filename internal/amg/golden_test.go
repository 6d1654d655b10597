package amg

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// goldenAMGRow is what the golden table pins of one hierarchy: an FNV-1a
// hash of every level's A, P and R (dimensions, RowPtr, ColIdx and value
// bits), one of x after three V-cycles from zero, and one of x after
// SolvePCG to 1e-8.
type goldenAMGRow struct {
	levels, vcycles, pcg uint64
}

// goldenAMG's first row was computed with the hierarchy built before the
// smoother, cycle-index and set-up options became constants, when Setup and
// SetupPooled were two entry points and a declined Galerkin dispatch spawned
// goroutines; the last two, which pin the coarse size of 64 from either side,
// with the constants in place. The CLJP row was computed with one Galerkin
// row body for every product; TestGoldenCoarseOperatorsMatchTripleProduct
// holds its coarse operators, and every other row's, to the reference
// product.
var goldenAMG = []struct {
	name string
	a    func() *matrix.CSR[float64]
	opts Options
	want goldenAMGRow
}{
	{"rugeL/lap2d9", func() *matrix.CSR[float64] { return gen.Laplacian2D9pt[float64](40, 40) },
		Options{Coarsening: RugeStueben},
		goldenAMGRow{0xcb34cc6639fea487, 0xe75f50b8b74b072a, 0xb93f5a90cbe418c8}},
	{"cljp/lap3d7", func() *matrix.CSR[float64] { return gen.Laplacian3D7pt[float64](12, 12, 12) },
		Options{Coarsening: CLJP, Seed: 1},
		goldenAMGRow{0xb35edd6d9e49abec, 0xcba6a45377bbeed2, 0x6595211c946e6f9a}},
	// Levels of 529, 264, 65 and 18 rows: a coarse size of 65 would stop at
	// the third.
	{"rugeL/lap2d5-23", func() *matrix.CSR[float64] { return gen.Laplacian2D5pt[float64](23, 23) },
		Options{Coarsening: RugeStueben},
		goldenAMGRow{0x8eaa858ee51b6b20, 0xa65de643bb56dd54, 0x2099b1b78ef8a881}},
	// Levels of 256 and 64 rows: a coarse size of 63 would coarsen the last.
	{"rugeL/lap2d9-16", func() *matrix.CSR[float64] { return gen.Laplacian2D9pt[float64](16, 16) },
		Options{Coarsening: RugeStueben},
		goldenAMGRow{0x99f26e957195739c, 0x90f0627ee8246197, 0xf26ae54fc1559864}},
}

func hashWords(h hash.Hash64, words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

func hashCSR(h hash.Hash64, m *matrix.CSR[float64]) {
	if m == nil {
		hashWords(h, math.MaxUint64)
		return
	}
	hashWords(h, uint64(m.Rows), uint64(m.Cols))
	for _, p := range m.RowPtr {
		hashWords(h, uint64(p))
	}
	for _, c := range m.ColIdx {
		hashWords(h, uint64(c))
	}
	hashVec(h, m.Vals)
}

func hashVec(h hash.Hash64, v []float64) {
	for _, x := range v {
		hashWords(h, math.Float64bits(x))
	}
}

// TestHierarchyUnchanged holds set-up, the V-cycle and AMG-PCG to the bits
// they produced before the multigrid options were cut to what callers set:
// Ruge–Stüben on 2D 9-point and 5-point Laplacians and CLJP (seed 1) on a 3D
// 7-point one, each set up without a pool and on pools of 2 and 4 threads. The
// hashes pin the float64 arithmetic of architectures that do not fuse
// multiply-adds.
func TestHierarchyUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("%s may fuse multiply-adds: the pinned bits are amd64's", runtime.GOARCH)
	}
	for _, c := range goldenAMG {
		for _, threads := range []int{0, 2, 4} {
			var pool *kernels.Pool[float64]
			if threads > 0 {
				pool = kernels.NewPool[float64](threads)
			}
			a := c.a()
			h, err := SetupPooled(a, c.opts, pool)
			if pool != nil {
				pool.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			var got goldenAMGRow
			hl := fnv.New64a()
			hashWords(hl, uint64(len(h.Levels)))
			for _, lvl := range h.Levels {
				hashCSR(hl, lvl.A)
				hashCSR(hl, lvl.P)
				hashCSR(hl, lvl.R)
			}
			got.levels = hl.Sum64()

			b := make([]float64, a.Rows)
			for i := range b {
				b[i] = float64(i%7) - 3
			}
			x := make([]float64, a.Rows)
			for i := 0; i < 3; i++ {
				h.VCycle(b, x)
			}
			hv := fnv.New64a()
			hashVec(hv, x)
			got.vcycles = hv.Sum64()

			clear(x)
			if st := h.SolvePCG(b, x, 1e-8, 100); !st.Converged {
				t.Fatalf("%s: SolvePCG did not converge: %+v", c.name, st)
			}
			hp := fnv.New64a()
			hashVec(hp, x)
			got.pcg = hp.Sum64()

			if got != c.want {
				t.Errorf("%s, pool of %d: hashes {levels %#x, V-cycles %#x, PCG %#x}, want {%#x, %#x, %#x}",
					c.name, threads, got.levels, got.vcycles, got.pcg, c.want.levels, c.want.vcycles, c.want.pcg)
			}
		}
	}
}

// TestGoldenCoarseOperatorsMatchTripleProduct holds every coarse operator of
// each golden hierarchy to matrix.TripleProduct of the level above. The
// association differs, so values agree to rounding, and an entry that
// cancels to an exact zero on one side only must be (near) zero on the
// other: both patterns are checked through At.
func TestGoldenCoarseOperatorsMatchTripleProduct(t *testing.T) {
	for _, c := range goldenAMG {
		h, err := SetupPooled(c.a(), c.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l < len(h.Levels); l++ {
			up := h.Levels[l-1]
			got, want := h.Levels[l].A, matrix.TripleProduct(up.R, up.A, up.P)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("%s level %d: %dx%d, reference %dx%d", c.name, l, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := 0; i < want.Rows; i++ {
				scale := 0.0
				for _, v := range want.Vals[want.RowPtr[i]:want.RowPtr[i+1]] {
					scale = max(scale, math.Abs(v))
				}
				tol := 1e-12 * max(scale, 1)
				for _, m := range []*matrix.CSR[float64]{want, got} {
					for jj := m.RowPtr[i]; jj < m.RowPtr[i+1]; jj++ {
						col := m.ColIdx[jj]
						if d := math.Abs(got.At(i, col) - want.At(i, col)); d > tol {
							t.Fatalf("%s level %d entry (%d,%d): %g, reference %g", c.name, l, i, col, got.At(i, col), want.At(i, col))
						}
					}
				}
			}
		}
	}
}
