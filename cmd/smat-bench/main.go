// Command smat-bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	smat-bench -experiment all [-model model.json] [-scale 0.25] [-stride 8]
//
// `smat-bench -h` lists the experiments -experiment accepts, in paper order,
// from the same table the flag dispatches on (experimentTable).
//
// Every experiment has a machine-readable JSON artifact named
// BENCH_<experiment>.json; pass -json-dir to write them. main_test.go checks
// that the table's names are unique and that every committed artifact parses
// as the envelope writeArtifact produces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"smat"
	"smat/internal/autotune"
	"smat/internal/bench"
)

// experiment is one row of the experiment table: the name the -experiment
// flag accepts (its artifact is BENCH_<name>.json) and the runner returning
// the serialisable result.
type experiment struct {
	name string
	run  func(cfg bench.Config) (any, error)
}

// artifact is the file name of the experiment's JSON artifact.
func (e experiment) artifact() string { return "BENCH_" + e.name + ".json" }

// experimentTable declares every experiment in paper order.
func experimentTable() []experiment {
	return []experiment{
		{name: "table1", run: func(cfg bench.Config) (any, error) { return bench.Table1(cfg), nil }},
		{name: "figure1", run: func(cfg bench.Config) (any, error) { return bench.Figure1(cfg) }},
		{name: "figure3", run: func(cfg bench.Config) (any, error) { return bench.Figure3(cfg), nil }},
		{name: "figure6", run: func(cfg bench.Config) (any, error) { return bench.Figure6(cfg), nil }},
		{name: "figure9", run: func(cfg bench.Config) (any, error) { return bench.Figure9(cfg), nil }},
		{name: "figure10", run: func(cfg bench.Config) (any, error) { return bench.Figure10(cfg), nil }},
		{name: "table3", run: func(cfg bench.Config) (any, error) { return bench.Table3(cfg), nil }},
		{name: "table4", run: func(cfg bench.Config) (any, error) { return bench.Table4(cfg) }},
		{name: "ablation-threshold", run: func(cfg bench.Config) (any, error) { return bench.AblationThreshold(cfg, nil), nil }},
		{name: "ablation-rules", run: func(cfg bench.Config) (any, error) { return bench.AblationRules(cfg) }},
		{name: "ablation-scoreboard", run: func(cfg bench.Config) (any, error) { return bench.AblationScoreboard(cfg), nil }},
		{name: "extensions", run: func(cfg bench.Config) (any, error) { return bench.Extensions(cfg), nil }},
		{name: "steady", run: func(cfg bench.Config) (any, error) { return bench.Steady(cfg), nil }},
		{name: "batch", run: func(cfg bench.Config) (any, error) { return bench.BatchBench(cfg), nil }},
		{name: "convert", run: func(cfg bench.Config) (any, error) { return bench.ConvertBench(cfg), nil }},
		{name: "solve", run: func(cfg bench.Config) (any, error) { return bench.SolveBench(cfg) }},
		{name: "selection", run: func(cfg bench.Config) (any, error) { return bench.Selection(cfg), nil }},
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("smat-bench: ")

	table := experimentTable()
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	var (
		experimentID = flag.String("experiment", "all", "experiment to run: "+strings.Join(names, ", ")+" or all")
		modelPath    = flag.String("model", "", "model JSON to load (default: the built-in model.json)")
		scale        = flag.Float64("scale", 0.25, "workload size scale (0,1]")
		stride       = flag.Int("stride", 8, "corpus sampling stride for corpus-wide experiments")
		threads      = flag.Int("threads", 0, "platform A threads (0 = GOMAXPROCS)")
		threadsB     = flag.Int("threads-b", 0, "platform B threads (0 = half of A)")
		seed         = flag.Int64("seed", 1, "workload seed")
		minTimeMS    = flag.Float64("mintime-ms", 1, "per-measurement minimum timing window (ms)")
		trials       = flag.Int("trials", 3, "measurement trials (fastest wins)")
		jsonDir      = flag.String("json-dir", "", "write each experiment's BENCH_<name>.json artifact into this directory")
		baseline     = flag.String("baseline-model", "", "selection: a second model to evaluate beside -model")
		dbPath       = flag.String("db", "", "selection: the feature database to cross-validate on")
	)
	flag.Parse()

	model := smat.DefaultModel()
	if *modelPath != "" {
		m, err := smat.LoadModelFile(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		model = m
		log.Printf("loaded model %s (%d classes, threshold %.2f)", *modelPath, len(m.Classes), m.ConfidenceThreshold)
	} else {
		log.Print("using the built-in model.json")
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
		Stride: *stride,
		Seed:   *seed,
		Out:    os.Stdout,
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

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	run := func(e experiment) {
		fmt.Printf("\n=== %s ===\n", e.name)
		start := time.Now()
		res, err := e.run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, e.artifact())
			if err := writeArtifact(path, e.name, res); err != nil {
				log.Fatalf("%s: writing %s: %v", e.name, path, err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Printf("(%s in %s)\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	if *experimentID != "all" && !slices.Contains(names, *experimentID) {
		log.Fatalf("unknown experiment %q; choose one of %s or all",
			*experimentID, strings.Join(names, ", "))
	}
	for _, e := range table {
		if *experimentID == "all" || e.name == *experimentID {
			run(e)
		}
	}
}

// artifactEnvelope is the artifact schema: the experiment name (matching the
// file name), the git provenance of the run, and the experiment's own payload.
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
