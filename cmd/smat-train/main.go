// Command smat-train runs SMAT's off-line stage: it generates the synthetic
// matrix corpus, searches the kernel library with the scoreboard algorithm,
// labels the training matrices by exhaustive measurement at every thread
// class, learns one ruleset per class, and writes the model JSON for
// smat-bench / smat-spmv / smat-amg.
//
// Usage:
//
//	smat-train -out model.json [-scale 1] [-train-n 2055] [-threads 1,2] [-skip-search] [-fast]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/matrix"
	"smat/internal/mining"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smat-train: ")

	var (
		out        = flag.String("out", "model.json", "output model path")
		scale      = flag.Float64("scale", 1, "corpus matrix size scale (0,1]")
		trainN     = flag.Int("train-n", 2055, "number of training matrices (paper: 2055)")
		threads    = flag.String("threads", "", "comma-separated thread classes to train (default: 1 and min(GOMAXPROCS, 4))")
		skipSearch = flag.Bool("skip-search", false, "label with the tuned partitioned kernels instead of running the kernel search")
		seed       = flag.Int64("seed", 1, "corpus and split seed")
		fast       = flag.Bool("fast", false, "fast mode: short timings, no kernel search")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		dbOut      = flag.String("db-out", "", "also write the feature database (JSON lines)")
		dbIn       = flag.String("db-in", "", "retrain from an existing feature database, skipping all measurement")
	)
	flag.Parse()

	if *dbIn != "" {
		retrainFromDatabase(*dbIn, *out)
		return
	}

	c := corpus.New(*scale, *seed)
	train, eval := c.Split(*trainN, *seed)
	log.Printf("corpus: %d matrices (%d train, %d eval), scale %g", len(c.Entries), len(train), len(eval), *scale)

	cfg := autotune.TrainConfig{
		Threads: threadClasses(*threads),
		Seed:    *seed,
	}
	if *skipSearch || *fast {
		cfg.SkipKernelSearch = true
	}
	if *fast {
		cfg.Measure = autotune.MeasureOptions{MinTime: 200 * time.Microsecond, Trials: 1}
	}
	if !*quiet {
		cfg.Progress = func(done, total int) {
			if done%100 == 0 || done == total {
				log.Printf("labeled %d/%d", done, total)
			}
		}
	}

	start := time.Now()
	res, err := autotune.Train(train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("training took %s", time.Since(start).Round(time.Second))
	for _, cl := range res.Classes {
		for _, s := range cl.Search {
			log.Printf("[%d threads] kernel search %-3s: best %-26s strategy scores %v", cl.Threads, s.Format, s.Best, s.StrategyScores)
		}
		for _, w := range cl.ParamSearch {
			if w.Kernel == "" {
				continue
			}
			log.Printf("[%d threads] param search  %-3s: best %-26s params %-10s %.2f GFLOPS (fixed menu %s %.2f), %d candidates pruned",
				cl.Threads, w.Format, w.Kernel, w.Params.String(), w.GFLOPS, w.FixedKernel, w.FixedGFLOPS, len(w.Pruned))
		}
		logClass(cl)
		// Label distribution, Table 1 style.
		counts := map[matrix.Format]int{}
		for _, l := range cl.Labels {
			counts[l.Best]++
		}
		log.Printf("[%d threads] training label distribution: CSR %d, COO %d, DIA %d, ELL %d", cl.Threads,
			counts[matrix.FormatCSR], counts[matrix.FormatCOO], counts[matrix.FormatDIA], counts[matrix.FormatELL])
	}

	if *dbOut != "" {
		df, err := os.Create(*dbOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Database.Save(df); err != nil {
			log.Fatal(err)
		}
		df.Close()
		log.Printf("feature database (%d records) written to %s", len(res.Database.Records), *dbOut)
	}
	save(res.Model, *out)
}

// threadClasses parses -threads; empty is 1 and min(GOMAXPROCS, 4).
func threadClasses(s string) []int {
	if s == "" {
		return []int{1, min(runtime.GOMAXPROCS(0), 4)}
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			log.Fatalf("-threads: %q is not a positive thread count", f)
		}
		out = append(out, n)
	}
	return out
}

// logClass prints one class's ruleset summary.
func logClass(cl autotune.ClassResult) {
	log.Printf("[%d threads] ruleset: %d rules tailored to %d; training accuracy %.1f%%",
		cl.Threads, cl.FullRules, cl.TailoredRules, 100*cl.TrainAccuracy)
}

// retrainFromDatabase relearns a model from stored records: the paper's
// reusable-training path (no matrix is built, no kernel is run).
func retrainFromDatabase(dbPath, outPath string) {
	f, err := os.Open(dbPath)
	if err != nil {
		log.Fatal(err)
	}
	db, err := autotune.LoadDatabase(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	res, err := autotune.TrainFromDatabase(db, autotune.TrainConfig{})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("retrained from %d records", len(db.Records))
	for _, cl := range res.Classes {
		logClass(cl)
		if _, cv, err := mining.CrossValidate(cl.Dataset, 5, autotune.DefaultTree(), 1); err == nil {
			log.Printf("[%d threads] 5-fold cross-validation accuracy: %.1f%%", cl.Threads, 100*cv)
		}
	}
	save(res.Model, outPath)
}

// save writes the model to path.
func save(m *autotune.Model, path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model written to %s\n", path)
}
