package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// manifest is BENCHMARK.json, the contract between this program and whoever
// gates changes on it.
type manifest struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// side is one result file reduced to what -compare needs.
type side struct {
	values    map[string]map[string][]float64 // workload → metric → one value per untraced run
	failRatio map[string]float64              // workload → worst failed/attempted
}

func loadSide(path string) (*side, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &side{values: map[string]map[string][]float64{}, failRatio: map[string]float64{}}
	for _, r := range recs {
		if r.Trace {
			continue // end-to-end numbers always come from untraced runs
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], v.Value)
		}
		if fr := ratio(float64(r.Result.Failed), float64(r.Result.Attempted)); fr > s.failRatio[r.Workload] {
			s.failRatio[r.Workload] = fr
		}
	}
	return s, nil
}

// verdict judges b against a for one metric. worse and better mean the
// medians differ by more than bound in that direction; a spread (quartile
// distance ÷ median, on either side) wider than the bound makes the
// difference unresolvable unless every run of b beats every run of a.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	worsening := ratio(mb-ma, ma)
	if higherBetter {
		worsening = -worsening
	}
	sa, sb := sorted(a), sorted(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if higherBetter {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case allBetter && worsening < -bound:
		return "better"
	case quartileSpread(a) > bound || quartileSpread(b) > bound:
		return "unresolved"
	case worsening > bound:
		return "worse"
	case worsening < -bound:
		return "better"
	}
	return "same"
}

// runCompare prints one row per workload × end-to-end metric and returns a
// non-zero status on any "worse" row or a higher fail ratio.
func runCompare(w io.Writer, pathA, pathB string) int {
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	man, err := loadManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	a, err := loadSide(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadSide(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var names []string
	for name := range a.values {
		if b.values[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two files share no workload")
		return 2
	}
	status := 0
	fmt.Fprintf(w, "%-12s %-18s %5s %14s %14s %8s %7s %7s %7s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "change", "bound", "iqr a", "iqr b", "verdict")
	for _, name := range names {
		for _, d := range man.EndToEnd {
			va, vb := a.values[name][d.Name], b.values[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, d.Better == "higher", d.Bound)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "%-12s %-18s %2d/%-2d %14.6g %14.6g %+7.1f%% %6.0f%% %6.1f%% %6.1f%%  %s\n",
				name, d.Name, len(va), len(vb), median(va), median(vb), 100*ratio(median(vb)-median(va), median(va)),
				100*d.Bound, 100*quartileSpread(va), 100*quartileSpread(vb), v)
		}
		if b.failRatio[name] > a.failRatio[name] {
			status = 1
			fmt.Fprintf(w, "%-12s %-18s fail ratio rose from %g to %g  worse\n", name, "fail_ratio", a.failRatio[name], b.failRatio[name])
		}
	}
	return status
}
