package matrix_test

import (
	"math/rand"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// BenchmarkConvertFromRecord times the value re-layout a structure hit runs
// on a re-submitted pattern: the conversion from the Layout remembered for
// the pattern (the template's one Scan, outside the timer) into DIA, COO and
// a padded ELL copy, serial, allocation included, in ns per stored slot.
// The DIA and COO inputs are the benchmark's serve_hit templates at full
// size (dia_band5_small, dia_lap2d_large, coo_road_small, coo_plaw_large);
// serve_hit's ELL templates hold one width throughout, which ToELLFrom serves
// as a view, so the ELL row copies a near-constant-degree matrix of
// ell_deg3_small's size, whose rows hold two to four entries.
func BenchmarkConvertFromRecord(b *testing.B) {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	for _, c := range []struct {
		name string
		f    matrix.Format
		m    *matrix.CSR[float64]
	}{
		{"DIA/band5_small", matrix.FormatDIA, gen.MultiDiagonal[float64](1400, []int{-2, -1, 0, 1, 2}, rng(1))},
		{"DIA/lap2d_large", matrix.FormatDIA, gen.Laplacian2D5pt[float64](100, 100)},
		{"COO/road_small", matrix.FormatCOO, gen.RoadNetwork[float64](2200, rng(2))},
		{"COO/plaw_large", matrix.FormatCOO, gen.PreferentialAttachment[float64](6000, 4, rng(3))},
		{"ELL/deg3_copy", matrix.FormatELL, gen.NearConstantDegree[float64](2400, 3, 1, rng(4))},
	} {
		m, l := c.m, &matrix.Scan(c.m).Layout
		var convert func() (stored int, err error)
		switch c.f {
		case matrix.FormatDIA:
			convert = func() (int, error) {
				d, err := m.ToDIAFrom(l, 0, matrix.Split{})
				if err != nil {
					return 0, err
				}
				return d.Stored(), nil
			}
		case matrix.FormatCOO:
			convert = func() (int, error) { return m.ToCOOSplit(matrix.Split{}).Stored(), nil }
		case matrix.FormatELL:
			if m.ELLView(l.MaxDeg) {
				b.Fatalf("%s: the ELL input is a view, not a copy", c.name)
			}
			convert = func() (int, error) {
				e, err := m.ToELLFrom(l, 0, matrix.Split{})
				if err != nil {
					return 0, err
				}
				return e.Stored(), nil
			}
		}
		b.Run(c.name, func(b *testing.B) {
			stored := 0
			for i := 0; i < b.N; i++ {
				n, err := convert()
				if err != nil {
					b.Fatal(err)
				}
				stored = n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(stored), "ns/slot")
		})
	}
}
