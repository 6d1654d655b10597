// Command smat-features extracts the paper's Table 2 structure parameters
// from Matrix Market files and, optionally, labels each matrix by exhaustive
// measurement and appends the records to a feature database — the paper's
// mechanism for growing the training evidence with a user's own matrices
// ("it is also open to add new matrices and corresponding records into the
// database to improve the prediction accuracy", Section 3).
//
// Usage:
//
//	smat-features [-label] [-db features.db.jsonl] [-model model.json] a.mtx b.mtx ...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"smat"
	"smat/internal/autotune"
	"smat/internal/features"
	"smat/internal/matrix"
	"smat/internal/mmio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smat-features: ")

	var (
		label     = flag.Bool("label", false, "also measure the best format for each matrix")
		dbPath    = flag.String("db", "", "append labeled records to this feature database (implies -label)")
		modelPath = flag.String("model", "", "model providing the kernel choice for labeling (default: the built-in model.json)")
		threads   = flag.Int("threads", 0, "threads for labeling (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: smat-features [flags] matrix.mtx ...")
	}
	if *dbPath != "" {
		*label = true
	}

	var labeler *autotune.Labeler
	if *label {
		model := smat.DefaultModel()
		if *modelPath != "" {
			m, err := smat.LoadModelFile(*modelPath)
			if err != nil {
				log.Fatal(err)
			}
			model = m
		}
		n := *threads
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		labeler = autotune.NewLabeler(model.Class(n).Choice(), *threads, autotune.MeasureOptions{
			MinTime: time.Millisecond, Trials: 3,
		})
	}

	db := &autotune.Database{}
	if *dbPath != "" {
		if f, err := os.Open(*dbPath); err == nil {
			existing, err := autotune.LoadDatabase(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			db = existing
			log.Printf("extending existing database with %d records", len(db.Records))
		}
	}

	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		m, err := mmio.Read(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		feat := features.Extract(m)
		fmt.Printf("%s: %s\n", path, feat.String())
		fmt.Printf("%s: fingerprint %016x (decision-cache key)\n", path, feat.Key().Hash())
		if labeler != nil {
			lbl := labeler.Label(m)
			var parts []string
			for _, fm := range matrix.Formats {
				if g, ok := lbl.GFLOPS[fm]; ok {
					parts = append(parts, fmt.Sprintf("%s %.2f", fm, g))
				}
			}
			fmt.Printf("%s: best %s  (%s GFLOPS)\n", path, lbl.Best, strings.Join(parts, ", "))
			name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			if err := add(db, name, feat, lbl); err != nil {
				log.Fatalf("%s: %v (nothing written)", path, err)
			}
		}
	}

	if *dbPath != "" {
		f, err := os.Create(*dbPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := db.Save(f); err != nil {
			log.Fatal(err)
		}
		log.Printf("database now holds %d records (%s)", len(db.Records), *dbPath)
	}
}

// add appends a labeled matrix to db, unless lbl was timed with other kernels
// than db's rows at its thread count: smat-train could not relearn from the
// database then (autotune.Database.Kernels).
func add(db *autotune.Database, name string, feat features.Features, lbl autotune.Label) error {
	db.Append(name, "user", feat, lbl)
	if _, err := db.Kernels(lbl.Threads); err != nil {
		db.Records = db.Records[:len(db.Records)-1]
		return err
	}
	return nil
}
