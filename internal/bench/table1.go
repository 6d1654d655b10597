package bench

import (
	"fmt"

	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/matrix"
)

// Table1Result reproduces the paper's Table 1: per application domain, the
// number of corpus matrices whose measured best format is CSR / COO / DIA /
// ELL.
type Table1Result struct {
	Rows    []Table1Row
	Totals  map[matrix.Format]int
	Percent map[matrix.Format]float64
	N       int
}

// Table1Row is one application-domain line.
type Table1Row struct {
	Domain string
	Counts map[matrix.Format]int
	Total  int
}

// Table1 labels the (stride-sampled) corpus by exhaustive measurement and
// tallies format affinity per application domain.
func Table1(cfg Config) *Table1Result {
	cfg = cfg.withDefaults()
	res := &Table1Result{
		Totals:  map[matrix.Format]int{},
		Percent: map[matrix.Format]float64{},
	}
	perDomain := map[string]*Table1Row{}
	var order []string
	label(cfg, cfg.Threads, every(corpus.New(cfg.Scale, cfg.Seed).Entries, cfg.Stride), func(e *corpus.Entry, _ *matrix.CSR[float64], lbl autotune.Label) {
		row, ok := perDomain[e.Domain]
		if !ok {
			row = &Table1Row{Domain: e.Domain, Counts: map[matrix.Format]int{}}
			perDomain[e.Domain] = row
			order = append(order, e.Domain)
		}
		row.Counts[lbl.Best]++
		row.Total++
		res.Totals[lbl.Best]++
		res.N++
	})
	for _, d := range order {
		res.Rows = append(res.Rows, *perDomain[d])
	}
	if res.N > 0 {
		for f, n := range res.Totals {
			res.Percent[f] = 100 * float64(n) / float64(res.N)
		}
	}

	t := &table{header: []string{"Application Domains", "CSR", "COO", "DIA", "ELL", "Total"}}
	for _, row := range res.Rows {
		t.add(row.Domain,
			fmt.Sprint(row.Counts[matrix.FormatCSR]), fmt.Sprint(row.Counts[matrix.FormatCOO]),
			fmt.Sprint(row.Counts[matrix.FormatDIA]), fmt.Sprint(row.Counts[matrix.FormatELL]),
			fmt.Sprint(row.Total))
	}
	t.add("Percentage",
		f2(res.Percent[matrix.FormatCSR])+"%", f2(res.Percent[matrix.FormatCOO])+"%",
		f2(res.Percent[matrix.FormatDIA])+"%", f2(res.Percent[matrix.FormatELL])+"%",
		fmt.Sprint(res.N))
	fmt.Fprintln(cfg.Out, "Table 1: application domains and distribution of affinity to each format")
	t.print(cfg.Out)
	return res
}
