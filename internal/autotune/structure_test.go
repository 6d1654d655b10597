package autotune

import (
	"math/rand"
	"runtime"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// signed returns the options of a tune of m as smat.NewCSR's handle makes it.
func signed(t testing.TB, m *matrix.CSR[float64]) TuneOptions {
	t.Helper()
	sig, err := m.Sign()
	if err != nil {
		t.Fatal(err)
	}
	return TuneOptions{Pattern: sig}
}

// revalued returns m's pattern under new values: the same index arrays, as a
// served template is re-submitted, or equal copies of them.
func revalued(m *matrix.CSR[float64], copyArrays bool, seed int64) *matrix.CSR[float64] {
	out := &matrix.CSR[float64]{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Vals: make([]float64, m.NNZ())}
	if copyArrays {
		out.RowPtr, out.ColIdx = append([]int(nil), m.RowPtr...), append([]int(nil), m.ColIdx...)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range out.Vals {
		out.Vals[i] = float64(rng.Intn(15)+1) / 8
	}
	return out
}

// TestStructureHitsCountResubmissions: the first signed tune of a pattern
// scans and remembers it; each of the N that follow — new values in the same
// arrays or in copies — is one structure hit, with the decision cache's hits
// and misses counted as they always were, the features bit-identical to a
// scan's and the same format served. An unsigned tune of the same matrix has
// no part in the index. The record is whichever the first tune computed: where
// the row pass decided it (ELL, COO, CSR here) no tune of the pattern ever
// reads the column indices — first, recalled, or recalled after the decision
// cache has dropped the pattern's entry and the ruleset decides again, from
// the remembered bounds.
func TestStructureHitsCountResubmissions(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *matrix.CSR[float64]
		want matrix.Format
	}{
		{"DIA", gen.MultiDiagonal[float64](3000, []int{-2, 0, 1}, rand.New(rand.NewSource(1))), matrix.FormatDIA},
		{"ELL", gen.ConstantDegree[float64](3000, 4, rand.New(rand.NewSource(2))), matrix.FormatELL},
		{"COO", gen.PreferentialAttachment[float64](3000, 3, rand.New(rand.NewSource(3))), matrix.FormatCOO},
		{"CSR", gen.RandomUniform[float64](3000, 3000, 20, rand.New(rand.NewSource(4))), matrix.FormatCSR},
	} {
		tuner := New[float64](modelAlways(c.want, 0.99), Config{Threads: 2})
		_, first, err := tuner.TuneOpts(c.m, signed(t, c.m))
		if err != nil {
			t.Fatal(err)
		}
		skipped := c.want != matrix.FormatDIA
		if first.StructureHit || first.CacheHit || first.Chosen != c.want || first.ColumnPassSkipped != skipped || first.Features.DiagsKnown() == skipped {
			t.Fatalf("%s: first tune: structure hit %v, cache hit %v, chose %v, column pass skipped %v, features %+v",
				c.name, first.StructureHit, first.CacheHit, first.Chosen, first.ColumnPassSkipped, first.Features)
		}
		const n = 7
		for i := 0; i < n; i++ {
			m := revalued(c.m, i%2 == 1, int64(i))
			_, d, err := tuner.TuneOpts(m, signed(t, m))
			if err != nil {
				t.Fatal(err)
			}
			if !d.StructureHit || !d.CacheHit || d.Chosen != c.want || d.Features != first.Features || d.ColumnPassSkipped != skipped {
				t.Errorf("%s: re-submission %d: structure hit %v, cache hit %v, chose %v, features equal %v",
					c.name, i, d.StructureHit, d.CacheHit, d.Chosen, d.Features == first.Features)
			}
		}
		if _, d, err := tuner.TuneOpts(c.m, TuneOptions{}); err != nil || d.StructureHit || !d.CacheHit {
			t.Errorf("%s: unsigned tune: structure hit %v, cache hit %v, err %v", c.name, d.StructureHit, d.CacheHit, err)
		}
		st := tuner.Stats()
		if st.StructureHits != n || st.Structures != 1 || st.Hits != n+1 || st.Misses != 1 {
			t.Errorf("%s: %d structure hits over %d records, %d hits, %d misses; want %d over 1, %d, 1",
				c.name, st.StructureHits, st.Structures, st.Hits, st.Misses, n, n+1)
		}

		// The decision cache loses the entry, the structure index keeps the
		// pattern: the tune leads again, from the record as remembered.
		key := m2key(tuner, c.m)
		shard := tuner.cache.shard(key)
		shard.mu.Lock()
		shard.decisions.remove(key)
		shard.mu.Unlock()
		_, d, err := tuner.TuneOpts(c.m, signed(t, c.m))
		if err != nil || !d.StructureHit || d.CacheHit || d.Chosen != c.want || d.Features != first.Features || d.ColumnPassSkipped != skipped {
			t.Errorf("%s: after the decision's eviction: structure hit %v, cache hit %v, chose %v, column pass skipped %v, features equal %v, err %v",
				c.name, d.StructureHit, d.CacheHit, d.Chosen, d.ColumnPassSkipped, d.Features == first.Features, err)
		}
		wantSkipped := uint64(0)
		if skipped {
			wantSkipped = n + 3 // the first tune, its re-submissions, the unsigned one, the one that led again
		}
		if got := tuner.Stats().ColumnPassesSkipped; got != wantSkipped {
			t.Errorf("%s: %d tunes counted as skipping the column pass, want %d", c.name, got, wantSkipped)
		}
		tuner.Close()
	}
}

// TestStructureIndexNeedsACache: a tuner without a decision cache has no
// structure index either, and a format hint — which bypasses the decisions —
// still uses the index of a tuner that has one.
func TestStructureIndexNeedsACache(t *testing.T) {
	m := gen.MultiDiagonal[float64](2000, []int{-1, 0, 1}, rand.New(rand.NewSource(5)))
	bare := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2, CacheSize: -1})
	defer bare.Close()
	for i := 0; i < 3; i++ {
		if _, d, err := bare.TuneOpts(m, signed(t, m)); err != nil || d.StructureHit {
			t.Fatalf("tuner without a cache: structure hit %v, err %v", d.StructureHit, err)
		}
	}
	if st := bare.Stats(); st.StructureHits != 0 || st.Structures != 0 {
		t.Errorf("tuner without a cache counted %d structure hits over %d records", st.StructureHits, st.Structures)
	}

	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	hint := signed(t, m)
	hint.FormatHint, hint.HasFormatHint = matrix.FormatELL, true
	for i, want := range []bool{false, true} {
		_, d, err := tuner.TuneOpts(m, hint)
		if err != nil || d.StructureHit != want || d.Chosen != matrix.FormatELL {
			t.Errorf("hinted tune %d: structure hit %v, chose %v, err %v", i, d.StructureHit, d.Chosen, err)
		}
	}
}

// TestStructureIndexBoundedLRU: the index holds at most the cache's capacity
// — it has no setting of its own — and within a shard drops the pattern
// least recently used.
func TestStructureIndexBoundedLRU(t *testing.T) {
	c := NewCache(128) // two records a shard
	rec := &structureRecord{}
	for sig := 1; sig <= 5000; sig++ {
		c.rememberStructure(structureKey{sig: matrix.Signature(sig), rows: 1}, rec)
	}
	if st := c.Stats(); st.Structures != 128 || st.Size != 0 || st.Evictions != 0 {
		t.Errorf("%d records (and %d decisions, %d decision evictions) after 5000 patterns at capacity 128", st.Structures, st.Size, st.Evictions)
	}

	c = NewCache(128)
	key := func(i int) structureKey { return structureKey{sig: matrix.Signature(7 + i*cacheShards), rows: 1} } // one shard
	c.rememberStructure(key(0), rec)
	c.rememberStructure(key(1), rec)
	if c.recallStructure(key(0)) == nil { // 1 is now the stalest
		t.Fatal("a record just remembered is gone")
	}
	c.rememberStructure(key(2), rec)
	if c.recallStructure(key(1)) != nil || c.recallStructure(key(0)) == nil || c.recallStructure(key(2)) == nil {
		t.Error("the shard did not drop its least recently used pattern")
	}
	if k := key(0); c.recallStructure(structureKey{sig: k.sig, rows: 2}) != nil {
		t.Error("a record was recalled under its signature and another shape")
	}
	if got := c.Stats().StructureHits; got != 3 {
		t.Errorf("%d structure hits counted, want the 3 recalls that found a record", got)
	}
}

// TestStructureRecordIsSlim: what the index retains for a pattern does not
// grow with the matrix. On a uniform-random matrix — Θ(rows+cols) occupied
// diagonals, DIA out of the question — the record keeps no diagonal, and the
// heap a remembered pattern holds on to once its matrix and operator are gone
// stays a few hundred bytes at 2 000 rows and at 200 000: no caller array, no
// per-row histogram, no per-diagonal tally.
func TestStructureRecordIsSlim(t *testing.T) {
	if raceEnabledAutotune {
		t.Skip("heap accounting is not stable under -race")
	}
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 2})
	defer tuner.Close()
	retained := func(rows int, seed int64) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := gen.RandomUniform[float64](rows, rows, 8, rand.New(rand.NewSource(seed)))
		opts := signed(t, m)
		if _, d, err := tuner.TuneOpts(m, opts); err != nil || d.StructureHit {
			t.Fatalf("%d rows: structure hit %v, err %v", rows, d.StructureHit, err)
		}
		rec := tuner.cache.recallStructure(structureKey{sig: opts.Pattern, rows: m.Rows, cols: m.Cols, nnz: m.NNZ()})
		if rec == nil || rec.layout.DiagOffsets != nil || rec.layout.MaxDeg == 0 {
			t.Fatalf("%d rows: remembered %+v, want a layout without diagonals", rows, rec)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return max(after.HeapAlloc, before.HeapAlloc) - before.HeapAlloc
	}
	retained(2_000, 1) // first use allocates what the tuner keeps for itself
	small, large := retained(2_000, 2), retained(200_000, 3)
	t.Logf("retained %d bytes at 2 000 rows, %d at 200 000", small, large)
	if large > small+32<<10 {
		t.Errorf("a remembered pattern retains %d bytes at 2 000 rows and %d at 200 000", small, large)
	}

	// A band the model may send to DIA keeps its diagonals: that is what a
	// DIA hit converts from.
	banded := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer banded.Close()
	band := gen.MultiDiagonal[float64](50_000, []int{-3, 0, 2}, rand.New(rand.NewSource(9)))
	opts := signed(t, band)
	if _, _, err := banded.TuneOpts(band, opts); err != nil {
		t.Fatal(err)
	}
	rec := banded.cache.recallStructure(structureKey{sig: opts.Pattern, rows: band.Rows, cols: band.Cols, nnz: band.NNZ()})
	if rec == nil || len(rec.layout.DiagOffsets) != 3 {
		t.Errorf("a three-diagonal band remembered %+v", rec)
	}
}

// TestDroppedDiagonalsRescanForDIA: a record without diagonals serves a DIA
// conversion anyway — here a format hint on a tuner with a wider fill limit
// than the one that recorded it: the conversion reads the structure itself,
// and the tune still counts as a structure hit (the features were recalled).
func TestDroppedDiagonalsRescanForDIA(t *testing.T) {
	m := gen.RandomUniform[float64](300, 300, 4, rand.New(rand.NewSource(11)))
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 2})
	defer tuner.Close()
	opts := signed(t, m)
	if _, _, err := tuner.TuneOpts(m, opts); err != nil {
		t.Fatal(err)
	}
	wide := modelAlways(matrix.FormatDIA, 0.99)
	wide.MaxFill = 1e9
	wider := New[float64](wide, Config{Threads: 2})
	defer wider.Close()
	k := structureKey{sig: opts.Pattern, rows: m.Rows, cols: m.Cols, nnz: m.NNZ()}
	rec := tuner.cache.recallStructure(k)
	if rec == nil || rec.layout.DiagOffsets != nil {
		t.Fatalf("the first tune remembered %+v, want a record without diagonals", rec)
	}
	wider.cache.rememberStructure(k, rec)
	opts.FormatHint, opts.HasFormatHint = matrix.FormatDIA, true
	op, d, err := wider.TuneOpts(m, opts)
	if err != nil || !d.StructureHit || d.Chosen != matrix.FormatDIA {
		t.Fatalf("DIA from a record without diagonals: structure hit %v, chose %v, err %v", d.StructureHit, d.Chosen, err)
	}
	x, y, want := make([]float64, m.Cols), make([]float64, m.Rows), make([]float64, m.Rows)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	op.MulVec(x, y)
	m.ToDense().MulVec(x, want)
	if !matrix.VecApproxEqual(y, want, 1e-12) {
		t.Error("DIA operator built past a record without diagonals multiplies wrongly")
	}
}
