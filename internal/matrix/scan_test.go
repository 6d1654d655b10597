package matrix_test

import (
	"errors"
	"math"
	"math/big"
	"slices"
	"sort"
	"testing"

	"smat/internal/matrix"
	"smat/internal/oracle"
)

// diaReference is the stand-alone DIA conversion as it stood before the
// structure scan: its own pass for the occupied diagonals, then the fill
// guard, then the values.
func diaReference(m *matrix.CSR[float64], maxFill float64) (*matrix.DIA[float64], error) {
	occupied := map[int]bool{}
	for r := 0; r < m.Rows; r++ {
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			occupied[m.ColIdx[jj]-r] = true
		}
	}
	var offsets []int
	for off := range occupied {
		offsets = append(offsets, off)
	}
	sort.Ints(offsets)
	stored := len(offsets) * m.Rows
	if maxFill > 0 && m.NNZ() > 0 && float64(stored) > maxFill*float64(m.NNZ()) {
		return nil, matrix.ErrFillExplosion
	}
	d := &matrix.DIA[float64]{Rows: m.Rows, Cols: m.Cols, Offsets: offsets, Data: make([]float64, stored)}
	for r := 0; r < m.Rows; r++ {
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			i, _ := slices.BinarySearch(offsets, m.ColIdx[jj]-r)
			d.Data[i*m.Rows+r] = m.Vals[jj]
		}
	}
	return d, nil
}

// TestScanFeedsConversions: converting from a structure record gives, element
// for element, what the stand-alone conversions give — DIA against the frozen
// pre-scan conversion, ELL against ToELL's own degree pass — on every oracle
// structure, and the fill guards reject the same matrices. One record feeds
// any number of conversions.
func TestScanFeedsConversions(t *testing.T) {
	for _, spec := range oracle.Specs() {
		m, err := oracle.BuildCSR[float64](&spec)
		if err != nil {
			t.Fatal(err)
		}
		s := matrix.Scan(m)
		for _, maxFill := range []float64{0, 1, 3, 20} {
			want, wantErr := diaReference(m, maxFill)
			got, gotErr := m.ToDIAFrom(&s.Layout, maxFill)
			alone, aloneErr := m.ToDIA(maxFill)
			switch {
			case wantErr != nil:
				if !errors.Is(gotErr, matrix.ErrFillExplosion) || !errors.Is(aloneErr, matrix.ErrFillExplosion) {
					t.Errorf("%s: DIA at fill %g: errors %v and %v, want the fill guard's rejection", spec.Name, maxFill, gotErr, aloneErr)
				}
			case gotErr != nil || aloneErr != nil:
				t.Errorf("%s: DIA at fill %g rejected: %v, %v", spec.Name, maxFill, gotErr, aloneErr)
			default:
				for _, d := range []*matrix.DIA[float64]{got, alone} {
					if !slices.Equal(d.Offsets, want.Offsets) || !slices.Equal(d.Data, want.Data) {
						t.Errorf("%s: DIA at fill %g differs from the reference conversion", spec.Name, maxFill)
					}
				}
			}

			wantE, wantErr := m.ToELL(maxFill)
			gotE, gotErr := m.ToELLFrom(&s.Layout, maxFill)
			switch {
			case wantErr != nil:
				if !errors.Is(gotErr, matrix.ErrFillExplosion) {
					t.Errorf("%s: ELL at fill %g: error %v, want the fill guard's rejection", spec.Name, maxFill, gotErr)
				}
			case gotErr != nil:
				t.Errorf("%s: ELL at fill %g rejected: %v", spec.Name, maxFill, gotErr)
			case gotE.Width != wantE.Width || !slices.Equal(gotE.ColIdx, wantE.ColIdx) || !slices.Equal(gotE.Data, wantE.Data):
				t.Errorf("%s: ELL at fill %g differs from the stand-alone conversion", spec.Name, maxFill)
			}
		}

		// The record outlives its conversions untouched.
		if d, err := m.ToDIAFrom(&s.Layout, 0); err == nil && len(d.Offsets) > 0 {
			d.Offsets[0] = 1 << 30
			if fresh := matrix.Scan(m); !slices.Equal(s.DiagOffsets, fresh.DiagOffsets) {
				t.Errorf("%s: writing a converted DIA's offsets reached the structure record", spec.Name)
			}
		}
	}
}

// TestScanRecord checks the record against the definitions, on both sides of
// the hypersparse cutoff (oracle's extremes are hypersparse, its blocks and
// bands dense).
func TestScanRecord(t *testing.T) {
	for _, spec := range oracle.Specs() {
		m, err := oracle.BuildCSR[float64](&spec)
		if err != nil {
			t.Fatal(err)
		}
		s := matrix.Scan(m)
		if s.Rows != m.Rows || s.Cols != m.Cols || s.NNZ != m.NNZ() || s.MaxDeg != m.MaxRowDegree() {
			t.Errorf("%s: record %dx%d nnz %d max degree %d", spec.Name, s.Rows, s.Cols, s.NNZ, s.MaxDeg)
		}
		hist := make([]int, s.MaxDeg+1)
		diags := map[int]int32{}
		var sum2 uint64
		for r := 0; r < m.Rows; r++ {
			deg := m.RowDegree(r)
			hist[deg]++
			sum2 += uint64(deg * deg)
			for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
				diags[m.ColIdx[jj]-r]++
			}
		}
		if !slices.Equal(s.DegHist, hist) || s.SumDeg2 != sum2 {
			t.Errorf("%s: degree histogram %v Σd² %d, want %v %d", spec.Name, s.DegHist, s.SumDeg2, hist, sum2)
		}
		// Var = (Rows·Σd² − NNZ²) / Rows², exactly, then rounded once.
		variance := 0.0
		if m.Rows > 0 {
			rows, nnz := big.NewInt(int64(m.Rows)), big.NewInt(int64(m.NNZ()))
			num := new(big.Int).Mul(rows, new(big.Int).SetUint64(sum2))
			num.Sub(num, nnz.Mul(nnz, nnz))
			variance, _ = new(big.Rat).SetFrac(num, rows.Mul(rows, rows)).Float64()
		}
		if got := s.DegreeVariance(); math.Abs(got-variance) > 1e-15*variance {
			t.Errorf("%s: degree variance %v, want %v", spec.Name, got, variance)
		}
		if len(s.DiagOffsets) != len(diags) || len(s.DiagCounts) != len(diags) || !slices.IsSorted(s.DiagOffsets) {
			t.Fatalf("%s: %d offsets %d counts for %d occupied diagonals", spec.Name, len(s.DiagOffsets), len(s.DiagCounts), len(diags))
		}
		for i, off := range s.DiagOffsets {
			if s.DiagCounts[i] != diags[off] {
				t.Errorf("%s: diagonal %d holds %d entries, want %d", spec.Name, off, s.DiagCounts[i], diags[off])
			}
		}
	}
}

// TestConvertFromForeignRecordPanics: a record scanned from another matrix is
// a caller bug, not a silently misplaced conversion.
func TestConvertFromForeignRecordPanics(t *testing.T) {
	a, _ := matrix.FromTriples(3, 3, []matrix.Triple[float64]{{Row: 0, Col: 0, Val: 1}})
	b, _ := matrix.FromTriples(3, 3, []matrix.Triple[float64]{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 2, Val: 1}})
	defer func() {
		if recover() == nil {
			t.Error("ToELLFrom accepted another matrix's structure record")
		}
	}()
	_, _ = a.ToELLFrom(&matrix.Scan(b).Layout, 0)
}
