// Command smat-bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	smat-bench -experiment all [-model model.json] [-scale 0.25] [-stride 8]
//
// Experiments: table1, figure1, figure3, figure6, figure9, figure10,
// table3, table4, ablation-threshold, ablation-tailoring,
// ablation-features, ablation-scoreboard, extensions, cache, steady,
// batch, convert, search, solve, selection, all.
//
// Every experiment has a machine-readable JSON artifact named
// BENCH_<experiment>.json; pass -json-dir to write them (the steady
// experiment keeps its dedicated -steady-out path). The benchjson analyzer
// in smat-lint checks that the table below stays total: each experiment
// declares exactly one artifact and the names agree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"smat"
	"smat/internal/autotune"
	"smat/internal/bench"
)

// experiment is one row of the experiment table: the name the -experiment
// flag accepts, the JSON artifact schema the run writes, and the runner
// returning the serialisable result.
type experiment struct {
	name     string
	artifact string
	run      func(cfg bench.Config) (any, error)
}

// experimentTable declares every experiment in paper order. smat-lint's
// benchjson analyzer enforces: unique non-empty literal names, artifact ==
// "BENCH_<name>.json", and a run function per entry.
func experimentTable() []experiment {
	return []experiment{
		{name: "table1", artifact: "BENCH_table1.json",
			run: func(cfg bench.Config) (any, error) { return bench.Table1(cfg), nil }},
		{name: "figure1", artifact: "BENCH_figure1.json",
			run: func(cfg bench.Config) (any, error) { return bench.Figure1(cfg) }},
		{name: "figure3", artifact: "BENCH_figure3.json",
			run: func(cfg bench.Config) (any, error) { return bench.Figure3(cfg), nil }},
		{name: "figure6", artifact: "BENCH_figure6.json",
			run: func(cfg bench.Config) (any, error) { return bench.Figure6(cfg), nil }},
		{name: "figure9", artifact: "BENCH_figure9.json",
			run: func(cfg bench.Config) (any, error) { return bench.Figure9(cfg), nil }},
		{name: "figure10", artifact: "BENCH_figure10.json",
			run: func(cfg bench.Config) (any, error) { return bench.Figure10(cfg), nil }},
		{name: "table3", artifact: "BENCH_table3.json",
			run: func(cfg bench.Config) (any, error) { return bench.Table3(cfg), nil }},
		{name: "table4", artifact: "BENCH_table4.json",
			run: func(cfg bench.Config) (any, error) { return bench.Table4(cfg) }},
		{name: "ablation-threshold", artifact: "BENCH_ablation-threshold.json",
			run: func(cfg bench.Config) (any, error) { return bench.AblationThreshold(cfg, nil), nil }},
		{name: "ablation-tailoring", artifact: "BENCH_ablation-tailoring.json",
			run: func(cfg bench.Config) (any, error) { return bench.AblationTailoring(cfg) }},
		{name: "ablation-features", artifact: "BENCH_ablation-features.json",
			run: func(cfg bench.Config) (any, error) { return bench.AblationFeatures(cfg) }},
		{name: "ablation-scoreboard", artifact: "BENCH_ablation-scoreboard.json",
			run: func(cfg bench.Config) (any, error) { return bench.AblationScoreboard(cfg), nil }},
		{name: "extensions", artifact: "BENCH_extensions.json",
			run: func(cfg bench.Config) (any, error) { return bench.Extensions(cfg), nil }},
		{name: "cache", artifact: "BENCH_cache.json",
			run: func(cfg bench.Config) (any, error) { return bench.CacheBench(cfg), nil }},
		{name: "steady", artifact: "BENCH_steady.json",
			run: func(cfg bench.Config) (any, error) { return bench.Steady(cfg), nil }},
		{name: "batch", artifact: "BENCH_batch.json",
			run: func(cfg bench.Config) (any, error) { return bench.BatchBench(cfg), nil }},
		{name: "convert", artifact: "BENCH_convert.json",
			run: func(cfg bench.Config) (any, error) { return bench.ConvertBench(cfg), nil }},
		{name: "search", artifact: "BENCH_search.json",
			run: func(cfg bench.Config) (any, error) { return bench.Search(cfg), nil }},
		{name: "solve", artifact: "BENCH_solve.json",
			run: func(cfg bench.Config) (any, error) { return bench.SolveBench(cfg) }},
		{name: "selection", artifact: "BENCH_selection.json",
			run: func(cfg bench.Config) (any, error) { return bench.Selection(cfg), nil }},
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("smat-bench: ")

	var (
		experimentID = flag.String("experiment", "all", "experiment id (table1, figure1, figure3, figure6, figure9, figure10, table3, table4, ablation-*, extensions, cache, steady, batch, convert, search, solve, selection, all)")
		modelPath    = flag.String("model", "", "trained model JSON (default: built-in heuristic model)")
		scale        = flag.Float64("scale", 0.25, "workload size scale (0,1]")
		stride       = flag.Int("stride", 8, "corpus sampling stride for corpus-wide experiments")
		threads      = flag.Int("threads", 0, "platform A threads (0 = GOMAXPROCS)")
		threadsB     = flag.Int("threads-b", 0, "platform B threads (0 = half of A)")
		seed         = flag.Int64("seed", 1, "workload seed")
		minTimeMS    = flag.Float64("mintime-ms", 1, "per-measurement minimum timing window (ms)")
		trials       = flag.Int("trials", 3, "measurement trials (fastest wins)")
		dataDir      = flag.String("data-dir", "", "write plot-ready .tsv series per experiment into this directory")
		jsonDir      = flag.String("json-dir", "", "write each experiment's BENCH_<name>.json artifact into this directory")
		steadyOut    = flag.String("steady-out", "BENCH_steady.json", "JSON artifact path for the steady experiment (empty = don't write)")
		baseline     = flag.String("baseline-model", "", "selection: a second model to evaluate beside -model")
		dbPath       = flag.String("db", "", "selection: the feature database to cross-validate on")
	)
	flag.Parse()

	model := smat.HeuristicModel()
	if *modelPath != "" {
		m, err := smat.LoadModelFile(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		model = m
		log.Printf("loaded model %s (%d classes, threshold %.2f)", *modelPath, len(m.Classes), m.ConfidenceThreshold)
	} else {
		log.Print("using built-in heuristic model (train one with smat-train for best accuracy)")
	}

	cfg := bench.Config{
		Scale:    *scale,
		Threads:  *threads,
		ThreadsB: *threadsB,
		Model:    model,
		Measure: autotune.MeasureOptions{
			MinTime: time.Duration(*minTimeMS * float64(time.Millisecond)),
			Trials:  *trials,
		},
		Stride:  *stride,
		Seed:    *seed,
		Out:     os.Stdout,
		DataDir: *dataDir,
	}

	if *baseline != "" {
		m, err := smat.LoadModelFile(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Baseline = m
	}
	if *dbPath != "" {
		f, err := os.Open(*dbPath)
		if err != nil {
			log.Fatal(err)
		}
		db, err := autotune.LoadDatabase(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Database = db
	}

	for _, dir := range []string{*dataDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
	}

	artifactPath := func(e experiment) string {
		if e.name == "steady" {
			return *steadyOut
		}
		if *jsonDir == "" {
			return ""
		}
		return filepath.Join(*jsonDir, e.artifact)
	}

	run := func(e experiment) {
		fmt.Printf("\n=== %s ===\n", e.name)
		start := time.Now()
		res, err := e.run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		if path := artifactPath(e); path != "" {
			if err := writeArtifact(path, e.name, res); err != nil {
				log.Fatalf("%s: writing %s: %v", e.name, path, err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Printf("(%s in %s)\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	table := experimentTable()
	switch *experimentID {
	case "all":
		for _, e := range table {
			run(e)
		}
	default:
		var names []string
		for _, e := range table {
			if e.name == *experimentID {
				run(e)
				return
			}
			names = append(names, e.name)
		}
		log.Fatalf("unknown experiment %q; choose one of %s or all",
			*experimentID, strings.Join(names, ", "))
	}
}

// artifactEnvelope is the committed-artifact schema smat-lint's benchjson
// analyzer validates: the experiment name (matching the file name), the git
// provenance of the run, and the experiment's own payload.
type artifactEnvelope struct {
	Experiment string `json:"experiment"`
	Git        string `json:"git"`
	Data       any    `json:"data"`
}

// writeArtifact writes v as an indented JSON artifact wrapped in the
// provenance envelope.
func writeArtifact(path, name string, v any) error {
	data, err := json.MarshalIndent(artifactEnvelope{
		Experiment: name,
		Git:        gitDescribe(),
		Data:       v,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitDescribe stamps the artifact with the commit it was measured at, or
// "unknown" outside a git checkout.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil || len(out) == 0 {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
