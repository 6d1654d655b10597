package autotune

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"smat/internal/features"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// DatabaseSchemaVersion is the record schema this build reads and writes:
// every row carries it, and the thread count its timings were taken at.
const DatabaseSchemaVersion = 2

// Record is one row of the feature database (the "Feature Database" box of
// the paper's Figure 4): a matrix's identity, its Table 2 feature values,
// and its performance measured at Threads — per format, the GFLOPS of the
// kernel it was timed with — with the resulting best-format label. A
// "params" key, written while kernels carried template parameters, loads and
// is ignored.
type Record struct {
	Schema   int                `json:"schema"`
	Threads  int                `json:"threads"`
	Name     string             `json:"name"`
	Domain   string             `json:"domain,omitempty"`
	Features features.Features  `json:"features"`
	Best     string             `json:"best"`
	GFLOPS   map[string]float64 `json:"gflops,omitempty"`
	Kernels  map[string]string  `json:"kernels,omitempty"`
}

// Database is the accumulated training evidence. The paper calls out that
// the database is open-ended: new matrices append new records, and models
// retrain from records without re-running any measurement.
type Database struct {
	Records []Record
}

// Append adds a labeled matrix to the database.
func (db *Database) Append(name, domain string, f features.Features, lbl Label) {
	rec := Record{
		Schema:   DatabaseSchemaVersion,
		Threads:  lbl.Threads,
		Name:     name,
		Domain:   domain,
		Features: f,
		Best:     lbl.Best.String(),
		GFLOPS:   make(map[string]float64, len(lbl.GFLOPS)),
	}
	for fmtID, v := range lbl.GFLOPS {
		rec.GFLOPS[fmtID.String()] = v
	}
	if len(lbl.Kernels) > 0 {
		rec.Kernels = make(map[string]string, len(lbl.Kernels))
		for fmtID, k := range lbl.Kernels {
			rec.Kernels[fmtID.String()] = k
		}
	}
	db.Records = append(db.Records, rec)
}

// Save writes the database as JSON lines (one record per line), a format
// that supports appending new records with a text editor or a shell.
func (db *Database) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range db.Records {
		if err := enc.Encode(&db.Records[i]); err != nil {
			return fmt.Errorf("autotune: save database record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// LoadDatabase reads a JSON-lines database written by Save. A row of another
// schema, without a thread count, with an unknown label, or with a negative
// or non-finite feature or GFLOPS value is an error.
func LoadDatabase(r io.Reader) (*Database, error) {
	db := &Database{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("autotune: database line %d: %w", line, err)
		}
		if err := rec.validate(); err != nil {
			return nil, fmt.Errorf("autotune: database line %d: %w", line, err)
		}
		db.Records = append(db.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("autotune: load database: %w", err)
	}
	return db, nil
}

// validate checks one loaded row.
func (rec *Record) validate() error {
	if rec.Schema != DatabaseSchemaVersion {
		return fmt.Errorf("schema version %d; this build reads version %d", rec.Schema, DatabaseSchemaVersion)
	}
	if rec.Threads < 1 {
		return fmt.Errorf("thread count %d", rec.Threads)
	}
	if _, err := matrix.ParseFormat(rec.Best); err != nil {
		return err
	}
	measured := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
	for i, v := range rec.Features.Vector() {
		if !measured(v) {
			return fmt.Errorf("feature %s = %g", features.AttributeNames[i], v)
		}
	}
	for f, v := range rec.GFLOPS {
		if !measured(v) {
			return fmt.Errorf("%s GFLOPS = %g", f, v)
		}
	}
	return nil
}

// Threads returns the thread counts the database holds rows for, ascending.
func (db *Database) Threads() []int {
	var out []int
	for i := range db.Records {
		out = append(out, db.Records[i].Threads)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Dataset converts the rows timed at threads into the learner's input.
func (db *Database) Dataset(threads int) (*mining.Dataset, error) {
	ds := &mining.Dataset{
		AttrNames:  features.AttributeNames,
		ClassNames: classNames(),
	}
	for i := range db.Records {
		rec := &db.Records[i]
		if rec.Threads != threads {
			continue
		}
		f, err := matrix.ParseFormat(rec.Best)
		if err != nil {
			return nil, fmt.Errorf("autotune: record %d (%s): %w", i, rec.Name, err)
		}
		if int(f) >= len(ds.ClassNames) {
			return nil, fmt.Errorf("autotune: record %d (%s): label %s outside the basic formats",
				i, rec.Name, rec.Best)
		}
		ds.Examples = append(ds.Examples, mining.Example{
			Attrs: rec.Features.Vector(),
			Label: int(f),
		})
	}
	return ds, nil
}

// Kernels is the per-format kernel the rows timed at threads were labeled
// with: the binding of the labeler that wrote them, one kernel per format.
// Rows of one class that name two kernels for a format are an error, and
// TrainFromDatabase refuses them.
func (db *Database) Kernels(threads int) (map[string]string, error) {
	out := map[string]string{}
	for i := range db.Records {
		rec := &db.Records[i]
		if rec.Threads != threads {
			continue
		}
		for f, k := range rec.Kernels {
			if prev, ok := out[f]; ok && prev != k {
				return nil, fmt.Errorf("autotune: record %d (%s): %s timed with %s, earlier %d-thread rows with %s",
					i, rec.Name, f, k, threads, prev)
			}
			out[f] = k
		}
	}
	return out, nil
}

// TrainFromDatabase learns a model from an existing feature database,
// skipping all measurement: one class per thread count the rows were timed
// at, each binding the kernels its rows were labeled with. It induces with
// DefaultTree, tailors to tailorLoss and ships DefaultConfidenceThreshold, so
// a database relearns to the same model every time.
func TrainFromDatabase(db *Database) (*TrainResult, error) {
	if len(db.Records) == 0 {
		return nil, fmt.Errorf("autotune: empty database")
	}
	res := &TrainResult{}
	var classes []ModelClass
	for _, threads := range db.Threads() {
		ds, err := db.Dataset(threads)
		if err != nil {
			return nil, err
		}
		tree, err := mining.BuildTree(ds, DefaultTree())
		if err != nil {
			return nil, fmt.Errorf("autotune: train from database (%d threads): %w", threads, err)
		}
		full := mining.RulesFromTree(tree, ds).SimplifyConditions(ds)
		tailored := full.Tailor(ds, tailorLoss)
		res.Classes = append(res.Classes, ClassResult{
			Threads:       threads,
			Dataset:       ds,
			FullRuleset:   full,
			FullRules:     len(full.Rules),
			TailoredRules: len(tailored.Rules),
			TrainAccuracy: tailored.Accuracy(ds),
		})
		kmap, err := db.Kernels(threads)
		if err != nil {
			return nil, err
		}
		classes = append(classes, ModelClass{Threads: threads, Kernels: kmap, Ruleset: tailored})
	}
	res.Model = NewModel(DefaultConfidenceThreshold, DefaultMaxFill, classes...)
	return res, nil
}
