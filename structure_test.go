// The structure index through the public API: a pattern submitted again —
// smat.NewCSR on the same index arrays or on an equal copy, with new values —
// is recognised by content and served without a structure scan.
package smat_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"smat"
	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/oracle"
)

// templates returns one pattern per format class, above and below the
// engine's serial cutoff.
func templates() map[string]*matrix.CSR[float64] {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	return map[string]*matrix.CSR[float64]{
		"band":       gen.MultiDiagonal[float64](4000, []int{-2, -1, 0, 1, 2}, rng(1)),
		"stencil":    gen.Laplacian2D5pt[float64](40, 40),
		"const-deg":  gen.ConstantDegree[float64](3000, 3, rng(2)),
		"incidence":  gen.BipartiteIncidence[float64](5000, 2500, 4, rng(3)),
		"random":     gen.RandomUniform[float64](800, 800, 20, rng(4)),
		"power-law":  gen.PreferentialAttachment[float64](6000, 4, rng(5)),
		"road":       gen.RoadNetwork[float64](3000, rng(6)),
		"empty-rows": gen.RandomUniform[float64](500, 500, 0.5, rng(7)),
	}
}

// values draws a new value array for a pattern of nnz entries.
func values(nnz int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, nnz)
	for i := range v {
		v[i] = float64(rng.Intn(15)+1) / 8
	}
	return v
}

// serve wraps the arrays in a new handle, multiplies once through the tuner
// and has the oracle check the product row by row against the serial
// reference; it returns the handle's decision.
func serve(t *testing.T, tuner *smat.Tuner[float64], what string, rows, cols int, rowPtr, colIdx []int, vals []float64) smat.Decision {
	t.Helper()
	a, err := smat.NewCSR(rows, cols, rowPtr, colIdx, vals)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	x, y := make([]float64, cols), make([]float64, rows)
	for i := range x {
		x[i] = float64((i*13)%31-15) / 8
	}
	for i := range y {
		y[i] = math.NaN()
	}
	if err := tuner.CSRSpMV(a, x, y); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := oracle.CheckProduct(a.CSR(), x, y, what); err != nil {
		t.Error(err)
	}
	return a.Operator().Decision()
}

// TestResubmittedPatternSkipsTheScan is identity by content, case by case:
// (a) the same index arrays under new values and (b) an equal copy of them
// are structure hits served the format the first submission picked; (c) the same
// backing arrays rewritten in place to another pattern of the same shape and
// entry count, wrapped again, are a miss — detected, not trusted — and what
// they were before the rewrite is still remembered. N re-submissions are
// exactly N structure hits, and the decision cache counts what it always did.
// A DIA pattern's diagonals are tallied once, by the first conversion — the
// first hit's, the first submission having deferred its own — and the
// pattern's record keeps them: no later hit tallies.
func TestResubmittedPatternSkipsTheScan(t *testing.T) {
	for name, m := range templates() {
		tuner := smat.NewTuner[float64](smat.DefaultModel(), smat.WithThreads(2))
		first := serve(t, tuner, name+": first", m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
		if first.StructureHit || first.CacheHit {
			t.Errorf("%s: first submission: structure hit %v, cache hit %v", name, first.StructureHit, first.CacheHit)
		}
		const n = 6
		var tallied uint64
		for i := 0; i < n; i++ {
			rowPtr, colIdx, how := m.RowPtr, m.ColIdx, ": same arrays"
			if i%2 == 1 {
				rowPtr, colIdx, how = append([]int(nil), rowPtr...), append([]int(nil), colIdx...), ": copied arrays"
			}
			d := serve(t, tuner, name+how, m.Rows, m.Cols, rowPtr, colIdx, values(m.NNZ(), int64(i)))
			if !d.StructureHit || !d.CacheHit || d.UsedFallback || d.Chosen != first.Asymptotic {
				t.Errorf("%s%s: structure hit %v, cache hit %v, fallback %v, chose %v after %v",
					name, how, d.StructureHit, d.CacheHit, d.UsedFallback, d.Chosen, first.Asymptotic)
			}
			switch tallies := tuner.Stats().DiagonalTallies; {
			case i == 0:
				tallied = tallies
			case tallies != tallied:
				t.Errorf("%s%s: hit %d tallied the diagonals again (%d tallies, %d after the first hit)", name, how, i+1, tallies, tallied)
			}
		}
		if want := uint64(0); first.Asymptotic == smat.FormatDIA && first.Chosen != smat.FormatDIA {
			if want = 1; tallied != want {
				t.Errorf("%s: a deferred DIA pick's first hit made %d tallies, want %d", name, tallied, want)
			}
		} else if tallied != want {
			t.Errorf("%s: chose %v and tallied diagonals %d times", name, first.Asymptotic, tallied)
		}
		st := tuner.Stats()
		if st.StructureHits != n || st.Structures != 1 || st.Hits != n || st.Misses != 1 {
			t.Errorf("%s: %d structure hits over %d patterns, %d cache hits, %d misses; want %d over 1, %d, 1",
				name, st.StructureHits, st.Structures, st.Hits, st.Misses, n, n)
		}
		// (c) Rewrite the arrays in place: every row keeps its length and
		// gives up its last column for the nearest free one, so the shape, the
		// entry count and every row pointer stay and the pattern does not.
		before := append([]int(nil), m.ColIdx...)
		moved := false
		for r := 0; r < m.Rows && !moved; r++ {
			if lo, hi := m.RowPtr[r], m.RowPtr[r+1]; hi > lo {
				if last := m.ColIdx[hi-1]; last+1 < m.Cols {
					m.ColIdx[hi-1], moved = last+1, true
				} else if hi-lo == 1 && last > 0 {
					m.ColIdx[hi-1], moved = last-1, true
				}
			}
		}
		if !moved {
			t.Fatalf("%s: no entry to move", name)
		}
		d := serve(t, tuner, name+": rewritten in place", m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
		if d.StructureHit {
			t.Errorf("%s: arrays rewritten in place to another pattern were a structure hit", name)
		}
		if d = serve(t, tuner, name+": as before the rewrite", m.Rows, m.Cols, m.RowPtr, before, m.Vals); !d.StructureHit {
			t.Errorf("%s: the pattern the arrays held before the rewrite was forgotten", name)
		}
		if st := tuner.Stats(); st.StructureHits != n+1 || st.Structures != 2 {
			t.Errorf("%s: %d structure hits over %d patterns after the rewrite, want %d over 2", name, st.StructureHits, st.Structures, n+1)
		}
		tuner.Close()
	}
}

// TestStructureIndexFollowsTheCache: WithCacheSize(0) disables the index with
// the cache, and handles that were not built by NewCSR — assembled from
// entries, read from a file — are unsigned and scan.
func TestStructureIndexFollowsTheCache(t *testing.T) {
	m := templates()["band"]

	off := smat.NewTuner[float64](smat.DefaultModel(), smat.WithThreads(2), smat.WithCacheSize(0))
	defer off.Close()
	for i := 0; i < 3; i++ {
		if d := serve(t, off, "no cache", m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals); d.StructureHit || d.CacheHit {
			t.Errorf("WithCacheSize(0): structure hit %v, cache hit %v", d.StructureHit, d.CacheHit)
		}
	}
	if st := off.Stats(); st.StructureHits != 0 || st.Structures != 0 {
		t.Errorf("WithCacheSize(0): %d structure hits over %d patterns", st.StructureHits, st.Structures)
	}

	owner := smat.NewTuner[float64](smat.DefaultModel(), smat.WithThreads(2))
	defer owner.Close()

	entries := make([]smat.Entry[float64], 0, m.NNZ())
	for r := 0; r < m.Rows; r++ {
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			entries = append(entries, smat.Entry[float64]{Row: r, Col: m.ColIdx[jj], Val: m.Vals[jj]})
		}
	}
	fromEntries, err := smat.FromEntries(m.Rows, m.Cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := smat.ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 2.0\n2 2 3.0\n3 3 1.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	for what, a := range map[string]*smat.Matrix[float64]{"FromEntries": fromEntries, "ReadMatrixMarket": fromFile} {
		for i := 0; i < 2; i++ {
			if _, err := owner.Tune(a); err != nil {
				t.Fatal(err)
			}
			if a.Operator().Decision().StructureHit {
				t.Errorf("%s: an unsigned handle was a structure hit", what)
			}
		}
	}
}
