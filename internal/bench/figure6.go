package bench

import (
	"fmt"
	"math"

	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/features"
	"smat/internal/matrix"
)

// Figure6Result reproduces Figure 6: for each rule parameter, the
// distribution of "beneficial" matrices (those whose measured best format is
// the parameter's format) over parameter-value intervals. The paper uses
// these histograms to justify each Table 2 parameter.
type Figure6Result struct {
	Panels []Figure6Panel
}

// Figure6Panel is one histogram: parameter name, interval labels, and the
// percentage of beneficial matrices per interval.
type Figure6Panel struct {
	Param     string
	Format    matrix.Format
	Intervals []string
	Percent   []float64
	N         int
}

// figure6Spec describes one panel: how to bucket a parameter value.
type figure6Spec struct {
	param  string
	format matrix.Format
	edges  []float64 // interval upper bounds; a final +inf bucket is implied
	value  func(f *features.Features) float64
}

func figure6Specs() []figure6Spec {
	ratioEdges := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	return []figure6Spec{
		{"Ndiags", matrix.FormatDIA, []float64{8, 32, 128, 512},
			func(f *features.Features) float64 { return float64(f.Ndiags) }},
		{"max_RD", matrix.FormatELL, []float64{4, 16, 64, 256},
			func(f *features.Features) float64 { return f.MaxRD }},
		{"ER_DIA", matrix.FormatDIA, ratioEdges,
			func(f *features.Features) float64 { return f.ERDIA }},
		{"ER_ELL", matrix.FormatELL, ratioEdges,
			func(f *features.Features) float64 { return f.ERELL }},
		{"NTdiags_ratio", matrix.FormatDIA, ratioEdges,
			func(f *features.Features) float64 { return f.NTdiagsRatio }},
		{"var_RD", matrix.FormatELL, []float64{0.5, 2, 8, 32},
			func(f *features.Features) float64 { return f.VarRD }},
		{"R", matrix.FormatCOO, []float64{1, 2, 3, 4},
			func(f *features.Features) float64 { return f.R }},
	}
}

// Figure6 labels the sampled corpus and histograms each parameter over the
// matrices that benefit from that parameter's format.
func Figure6(cfg Config) *Figure6Result {
	cfg = cfg.withDefaults()
	c := corpus.New(cfg.Scale, cfg.Seed)
	labeler := autotune.NewLabeler(cfg.choice(), cfg.Threads, cfg.Measure)

	type sample struct {
		f    features.Features
		best matrix.Format
	}
	var samples []sample
	for _, e := range c.Sample(cfg.Stride) {
		m := e.Matrix()
		samples = append(samples, sample{features.Extract(m), labeler.Label(m).Best})
	}

	res := &Figure6Result{}
	for _, spec := range figure6Specs() {
		panel := Figure6Panel{Param: spec.param, Format: spec.format}
		counts := make([]int, len(spec.edges)+1)
		total := 0
		for _, s := range samples {
			if s.best != spec.format {
				continue
			}
			v := spec.value(&s.f)
			b := len(spec.edges)
			for i, e := range spec.edges {
				if v <= e {
					b = i
					break
				}
			}
			counts[b]++
			total++
		}
		panel.N = total
		prev := math.Inf(-1)
		for i := range counts {
			var label string
			switch {
			case i == len(spec.edges):
				label = fmt.Sprintf(">%g", spec.edges[len(spec.edges)-1])
			case math.IsInf(prev, -1):
				label = fmt.Sprintf("≤%g", spec.edges[i])
			default:
				label = fmt.Sprintf("(%g,%g]", prev, spec.edges[i])
			}
			if i < len(spec.edges) {
				prev = spec.edges[i]
			}
			panel.Intervals = append(panel.Intervals, label)
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(counts[i]) / float64(total)
			}
			panel.Percent = append(panel.Percent, pct)
		}
		res.Panels = append(res.Panels, panel)
	}

	fmt.Fprintln(cfg.Out, "Figure 6: distribution of beneficial matrices per parameter interval")
	for _, p := range res.Panels {
		fmt.Fprintf(cfg.Out, "\n%s (matrices whose best format is %s, n=%d)\n", p.Param, p.Format, p.N)
		t := &table{header: []string{"interval", "percent"}}
		for i, iv := range p.Intervals {
			t.add(iv, f2(p.Percent[i])+"%")
		}
		t.print(cfg.Out)
	}
	return res
}
