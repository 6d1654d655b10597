// Command smat-bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	smat-bench -experiment all [-model model.json] [-db features.db.jsonl] [-json-dir .] [-smoke]
//
// `smat-bench -h` lists the experiments -experiment accepts, in paper order,
// from the same table the flag dispatches on (experimentTable). Each row of
// that table records the settings its numbers are measured at, so an
// experiment is reproduced by name; -smoke runs every one at one small
// setting instead.
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
	"runtime"
	"slices"
	"strings"
	"time"

	"smat"
	"smat/internal/autotune"
	"smat/internal/bench"
)

// settings is an experiment's recorded configuration: the workload scale
// (0, 1], the corpus sampling stride of corpus-wide experiments, and the
// timing window and trials of every measurement (fastest wins).
type settings struct {
	Scale     float64 `json:"scale"`
	Stride    int     `json:"stride"`
	MinTimeMS float64 `json:"min_time_ms"`
	Trials    int     `json:"trials"`
}

var (
	// survey is the setting of the experiments without a committed artifact.
	survey = settings{Scale: 0.3, Stride: 4, MinTimeMS: 2, Trials: 2}
	// full is the whole workload at the default timing.
	full = settings{Scale: 1, Stride: 8, MinTimeMS: 1, Trials: 3}
	// smoke is -smoke's setting: every experiment end to end in seconds.
	smoke = settings{Scale: 0.05, Stride: 16, MinTimeMS: 0.2, Trials: 1}
)

// experiment is one row of the experiment table: the name the -experiment
// flag accepts (its artifact is BENCH_<name>.json), the settings it is
// recorded at, and the runner returning the serialisable result.
type experiment struct {
	name string
	settings
	run func(cfg bench.Config) (any, error)
}

// artifact is the file name of the experiment's JSON artifact.
func (e experiment) artifact() string { return "BENCH_" + e.name + ".json" }

// experimentTable declares every experiment in paper order.
func experimentTable() []experiment {
	return []experiment{
		{"table1", survey, func(cfg bench.Config) (any, error) { return bench.Table1(cfg), nil }},
		{"figure1", full, func(cfg bench.Config) (any, error) { return bench.Figure1(cfg) }},
		{"figure3", survey, func(cfg bench.Config) (any, error) { return bench.Figure3(cfg), nil }},
		{"figure6", survey, func(cfg bench.Config) (any, error) { return bench.Figure6(cfg), nil }},
		{"figure9", survey, func(cfg bench.Config) (any, error) { return bench.Figure9(cfg), nil }},
		{"figure10", survey, func(cfg bench.Config) (any, error) { return bench.Figure10(cfg), nil }},
		{"table3", settings{Scale: 1, Stride: 4, MinTimeMS: 2, Trials: 2}, func(cfg bench.Config) (any, error) { return bench.Table3(cfg), nil }},
		{"table4", full, func(cfg bench.Config) (any, error) { return bench.Table4(cfg) }},
		{"ablation-threshold", survey, func(cfg bench.Config) (any, error) { return bench.AblationThreshold(cfg, nil), nil }},
		{"ablation-rules", survey, func(cfg bench.Config) (any, error) { return bench.AblationRules(cfg) }},
		{"ablation-scoreboard", survey, func(cfg bench.Config) (any, error) { return bench.AblationScoreboard(cfg), nil }},
		{"extensions", survey, func(cfg bench.Config) (any, error) { return bench.Extensions(cfg), nil }},
		{"steady", full, func(cfg bench.Config) (any, error) { return bench.Steady(cfg), nil }},
		{"batch", settings{Scale: 1, Stride: 8, MinTimeMS: 30, Trials: 5}, func(cfg bench.Config) (any, error) { return bench.BatchBench(cfg), nil }},
		{"convert", settings{Scale: 1, Stride: 8, MinTimeMS: 1, Trials: 5}, func(cfg bench.Config) (any, error) { return bench.ConvertBench(cfg), nil }},
		{"solve", full, func(cfg bench.Config) (any, error) { return bench.SolveBench(cfg) }},
		{"selection", settings{Scale: 1, Stride: 1, MinTimeMS: 1, Trials: 3}, func(cfg bench.Config) (any, error) { return bench.Selection(cfg), nil }},
	}
}

// runConfig is what an artifact records of its run: the settings, the
// thread count (GOMAXPROCS) and where the model and database came from.
type runConfig struct {
	settings
	Threads int    `json:"threads"`
	Model   string `json:"model"`
	DB      string `json:"db,omitempty"`
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
		jsonDir      = flag.String("json-dir", "", "write each experiment's BENCH_<name>.json artifact into this directory")
		dbPath       = flag.String("db", "", "selection: the feature database to cross-validate on")
		smokeRun     = flag.Bool("smoke", false, fmt.Sprintf("run at scale %g, stride %d, %g ms, %d trial instead of each experiment's recorded settings",
			smoke.Scale, smoke.Stride, smoke.MinTimeMS, smoke.Trials))
	)
	flag.Parse()

	if *experimentID != "all" && !slices.Contains(names, *experimentID) {
		log.Fatalf("unknown experiment %q; choose one of %s or all",
			*experimentID, strings.Join(names, ", "))
	}
	base := runConfig{Threads: runtime.GOMAXPROCS(0), Model: "built-in model.json", DB: *dbPath}
	model := smat.DefaultModel()
	if *modelPath != "" {
		m, err := smat.LoadModelFile(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		model, base.Model = m, *modelPath
		log.Printf("loaded model %s (%d classes, threshold %.2f)", *modelPath, len(m.Classes), m.ConfidenceThreshold)
	} else {
		log.Print("using the built-in model.json")
	}
	var db *autotune.Database
	if *dbPath != "" {
		f, err := os.Open(*dbPath)
		if err != nil {
			log.Fatal(err)
		}
		db, err = autotune.LoadDatabase(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	for _, e := range table {
		if *experimentID != "all" && e.name != *experimentID {
			continue
		}
		rc := base
		rc.settings = e.settings
		if *smokeRun {
			rc.settings = smoke
		}
		fmt.Printf("\n=== %s (scale %g, stride %d, %g ms, %d trials, %d threads) ===\n",
			e.name, rc.Scale, rc.Stride, rc.MinTimeMS, rc.Trials, rc.Threads)
		start := time.Now()
		res, err := e.run(bench.Config{
			Scale:    rc.Scale,
			Threads:  rc.Threads,
			Model:    model,
			Database: db,
			Measure: autotune.MeasureOptions{
				MinTime: time.Duration(rc.MinTimeMS * float64(time.Millisecond)),
				Trials:  rc.Trials,
			},
			Stride: rc.Stride,
			Out:    os.Stdout,
		})
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, e.artifact())
			if err := writeArtifact(path, e.name, rc, res); err != nil {
				log.Fatalf("%s: writing %s: %v", e.name, path, err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Printf("(%s in %s)\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

// artifactEnvelope is the artifact schema: the experiment name (matching the
// file name), the git provenance of the run, the machine and configuration
// it ran on, and the experiment's own payload.
type artifactEnvelope struct {
	Experiment string    `json:"experiment"`
	Git        string    `json:"git"`
	Machine    machine   `json:"machine"`
	Config     runConfig `json:"config"`
	Data       any       `json:"data"`
}

// writeArtifact writes v as an indented JSON artifact wrapped in the
// provenance envelope.
func writeArtifact(path, name string, rc runConfig, v any) error {
	data, err := json.MarshalIndent(artifactEnvelope{
		Experiment: name,
		Git:        gitDescribe(),
		Machine:    machineRecord(),
		Config:     rc,
		Data:       v,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitDescribe stamps the artifact with the commit it was measured at, or
// "unknown" outside a git checkout. The stamp ends in "-dirty" when a
// tracked file other than a BENCH_*.json artifact differs from that commit,
// so regenerating the artifacts one by one into the checkout stays clean.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always").Output()
	if err != nil || len(out) == 0 {
		return "unknown"
	}
	stamp := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD", "--", ":/", ":(top,exclude)BENCH_*.json").Run() != nil {
		stamp += "-dirty"
	}
	return stamp
}
