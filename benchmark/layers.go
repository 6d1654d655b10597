package main

import (
	"runtime"
	"time"

	"smat"
	"smat/internal/autotune"
	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// perLayerMetrics are reported by traced runs. Each traced run prints all
// of them; a layer the workload bypasses reads 0, which is the point of the
// workload pairing (README.md lists which end-to-end metric each should
// move, on which workload). ".F" metrics come one per storage format.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"matrix.convert_ns_per_nnz.COO", "ns", "lower", 0},
		{"matrix.convert_ns_per_nnz.DIA", "ns", "lower", 0},
		{"matrix.convert_ns_per_nnz.ELL", "ns", "lower", 0},
		{"matrix.convert_fill.DIA", "ratio", "lower", 0},
		{"matrix.convert_fill.ELL", "ratio", "lower", 0},
		{"matrix.validate_ns_per_nnz", "ns", "lower", 0},
		{"features.extract_ns_per_nnz", "ns", "lower", 0},
		{"features.extract_share", "ratio", "lower", 0},
		{"mining.predict_us", "us", "lower", 0},
		{"autotune.tune_self_share", "ratio", "lower", 0},
		{"autotune.fallback_ratio", "ratio", "lower", 0},
		{"autotune.fallback_ms_p50", "ms", "lower", 0},
		{"autotune.fallback_share", "ratio", "lower", 0},
		{"autotune.batch_probe_share", "ratio", "lower", 0},
		{"autotune.amort_probe_share", "ratio", "lower", 0},
		{"autotune.convert_share", "ratio", "lower", 0},
		{"autotune.cache_hit_ratio", "ratio", "higher", 0},
		{"autotune.hit_self_us", "us", "lower", 0},
		{"autotune.swap_latency_ms", "ms", "lower", 0},
		{"autotune.selection_accuracy", "ratio", "higher", 0},
		{"autotune.selection_loss", "ratio", "lower", 0},
		{"autotune.decision_flip_ratio", "ratio", "lower", 0},
		{"kernels.parallel_efficiency", "ratio", "higher", 0},
		{"kernels.allocs_per_call", "count", "lower", 0},
		{"kernels.pool_dispatch_us", "us", "lower", 0},
		{"kernels.spmm_k3_gflops", "GFLOP/s", "higher", 0},
		{"kernels.spmm_tile_speedup", "ratio", "higher", 0},
		{"kernels.batch_crossover_p50", "count", "lower", 0},
		{"kernels.spgemm_s", "s", "lower", 0},
		{"solve.cg_iterations", "count", "lower", 0},
		{"solve.iter_us", "us", "lower", 0},
		{"solve.blas1_share", "ratio", "lower", 0},
		{"amg.setup_s", "s", "lower", 0},
		{"amg.bind_s", "s", "lower", 0},
		{"amg.levels", "count", "lower", 0},
		{"amg.pcg_iterations", "count", "lower", 0},
		{"amg.cycle_ms", "ms", "lower", 0},
		{"refblas.best_fixed_gflops_geomean", "GFLOP/s", "higher", 0},
		{"smat.api_self_us", "us", "lower", 0},
		{"smat.first_call_self_us", "us", "lower", 0},
		{"smat.first_result_ms_p50", "ms", "lower", 0},
		{"smat.first_result_ms_p99", "ms", "lower", 0},
		{"smat.overhead_spmv_p50", "ratio", "lower", 0},
		{"machine.triad_gbps", "GB/s", "higher", 0},
		{"machine.gomaxprocs", "count", "higher", 0},
		{"machine.timer_floor_ns", "ns", "lower", 0},
		{"machine.noise_cv", "ratio", "lower", 0},
		{"bench.trace_overhead_ratio", "ratio", "lower", 0},
		{"bench.op_ms_p10", "ms", "lower", 0},
		{"bench.gflops_geomean", "GFLOP/s", "higher", 0},
		{"bench.op_ms_p50", "ms", "lower", 0},
		{"bench.op_ms_p90", "ms", "lower", 0},
		{"bench.ops_per_s", "1/s", "higher", 0},
	}
	for _, f := range classNames {
		defs = append(defs,
			metricDef{"kernels.spmv_gflops." + f, "GFLOP/s", "higher", 0},
			metricDef{"kernels.flop_per_byte." + f, "flop/B", "higher", 0},
			metricDef{"kernels.gbps." + f, "GB/s", "higher", 0},
			metricDef{"kernels.bw_fraction." + f, "ratio", "higher", 0},
			metricDef{"kernels.spmm_gflops." + f, "GFLOP/s", "higher", 0},
			metricDef{"refblas.gflops." + f, "GFLOP/s", "higher", 0},
		)
	}
	return defs
}()

// probeMaxFill bounds DIA/ELL zero-fill wherever the benchmark converts on
// its own account (refblas baselines, conversion probes): the tuner's own
// execute-and-measure guard.
const probeMaxFill = 3.0

// classFormat maps a structural class index to its storage format.
var classFormat = [4]matrix.Format{matrix.FormatDIA, matrix.FormatELL, matrix.FormatCSR, matrix.FormatCOO}

// handle wraps an input's arrays in a fresh public matrix handle; validation
// runs inside, as it does for any caller.
func handle(in *input) (*smat.Matrix[float64], error) {
	return smat.NewCSR(in.m.Rows, in.m.Cols, in.m.RowPtr, in.m.ColIdx, in.m.Vals)
}

// timeIt returns fn's wall time in seconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// medianOf times fn n times and returns the median seconds.
func medianOf(n int, fn func()) float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = timeIt(fn)
	}
	return median(s)
}

// tuneAcc accumulates the tuning-stack replays of cold_tune and serve_hit:
// seconds per stage summed over requests, plus the program-reported stage
// seconds of a replayed autotune.TuneOpts and its outside-measured span.
type tuneAcc struct {
	rootSec, validateSec, extractSec, convertSec, kernelSec float64
	nnz, validatedNNZ                                       float64
	matchUs, firstCallSelfUs, hitSelfUs, fallbackMs         []float64

	tuneSpanSec                                          float64 // Σ outside-measured TuneOpts replays
	featureSec, convSec, fallbackSec, batchSec, amortSec float64 // Σ program-reported Decision stage seconds
	tunes, fallbacks                                     int
}

// stages replays, as child spans of root, the public stage functions behind
// one first CSRSpMV on in: feature extraction, rule matching, conversion to
// the chosen format and one multiply. rootSec is the root span's duration.
func (a *tuneAcc) stages(e *env, root, req int, in *input, op *smat.Operator[float64], rootSec float64, y []float64) {
	var ft features.Features
	ext := e.tr.replay(root, req, "features", "features.Extract", func() { ft = features.Extract(in.m) })
	fv := ft.Vector()
	const matchReps = 64
	match := e.tr.replay(root, req, "mining", "Ruleset.Match", func() {
		for i := 0; i < matchReps; i++ {
			e.model.Ruleset.Match(fv)
		}
	}) / matchReps
	conv := 0.0
	if f := op.Decision().Chosen; f != matrix.FormatCSR {
		conv = e.tr.replay(root, req, "matrix", "kernels.Convert", func() {
			_, _ = kernels.Convert(in.m, f, e.model.MaxFill) // feasibility was settled by the tuner
		})
	}
	kern := e.tr.replay(root, req, "kernels", "Operator.MulVec", func() { op.MulVec(in.x, y) })
	a.rootSec += rootSec
	a.extractSec += ext
	a.convertSec += conv
	a.kernelSec += kern
	a.nnz += float64(in.m.NNZ())
	a.matchUs = append(a.matchUs, match*1e6)
	a.firstCallSelfUs = append(a.firstCallSelfUs, selfTime(rootSec, ext, match, conv, kern)*1e6)
}

// decision replays the tune itself on the autotune layer's entry point —
// the only place the per-stage seconds are reported — and accumulates them
// against that replay's own outside-measured span.
func (a *tuneAcc) decision(at *autotune.Tuner[float64], in *input) error {
	var d *autotune.Decision
	var err error
	span := timeIt(func() { _, d, err = at.TuneOpts(in.m, autotune.TuneOptions{SyncConvert: true}) })
	if err != nil {
		return err
	}
	a.tuneSpanSec += span
	a.tunes++
	a.featureSec += d.FeatureSec
	a.convSec += d.ConvertSec
	a.fallbackSec += d.FallbackSec
	a.batchSec += d.BatchProbeSec
	a.amortSec += d.AmortProbeSec
	if d.UsedFallback {
		a.fallbacks++
		a.fallbackMs = append(a.fallbackMs, d.FallbackSec*1e3)
	}
	if d.CacheHit {
		a.hitSelfUs = append(a.hitSelfUs, selfTime(span, d.FeatureSec, d.ConvertSec)*1e6)
	}
	return nil
}

// emit turns the accumulated replays into the tuning-stack layer metrics.
func (a *tuneAcc) emit(layer map[string]float64) {
	layer["matrix.validate_ns_per_nnz"] = ratio(a.validateSec*1e9, a.validatedNNZ)
	layer["features.extract_ns_per_nnz"] = ratio(a.extractSec*1e9, a.nnz)
	layer["features.extract_share"] = ratio(a.extractSec, a.rootSec)
	layer["mining.predict_us"] = median(a.matchUs)
	layer["smat.first_call_self_us"] = median(a.firstCallSelfUs)
	layer["autotune.fallback_ratio"] = ratio(float64(a.fallbacks), float64(a.tunes))
	layer["autotune.fallback_ms_p50"] = median(a.fallbackMs)
	layer["autotune.fallback_share"] = ratio(a.fallbackSec, a.tuneSpanSec)
	layer["autotune.batch_probe_share"] = ratio(a.batchSec, a.tuneSpanSec)
	layer["autotune.amort_probe_share"] = ratio(a.amortSec, a.tuneSpanSec)
	layer["autotune.convert_share"] = ratio(a.convSec, a.tuneSpanSec)
	layer["autotune.tune_self_share"] = ratio(selfTime(a.tuneSpanSec, a.featureSec, a.convSec, a.fallbackSec, a.batchSec, a.amortSec), a.tuneSpanSec)
	layer["autotune.hit_self_us"] = median(a.hitSelfUs)
}

// convertProbe measures kernels.Convert to each non-CSR format over ins:
// nanoseconds per source nonzero, and stored slots per nonzero (exact).
func convertProbe(ins []*input, layer map[string]float64) {
	for _, f := range []matrix.Format{matrix.FormatCOO, matrix.FormatDIA, matrix.FormatELL} {
		var sec, nnz, stored float64
		for _, in := range ins {
			var mat *kernels.Mat[float64]
			var err error
			s := timeIt(func() { mat, err = kernels.Convert(in.m, f, probeMaxFill) })
			if err != nil {
				continue // fill guard: this structure does not fit the format
			}
			sec += s
			nnz += float64(in.m.NNZ())
			stored += float64(mat.Stored())
		}
		layer["matrix.convert_ns_per_nnz."+f.String()] = ratio(sec*1e9, nnz)
		if f != matrix.FormatCOO {
			layer["matrix.convert_fill."+f.String()] = ratio(stored, nnz)
		}
	}
}

// firstResultMetrics reports the issue's Table 3 view of the first call on a
// new handle: its latency, and its cost in the input's own single-thread
// refblas CSR-SpMVs (first[i] and base[i] are input i's samples).
func firstResultMetrics(first, base [][]float64, layer map[string]float64) {
	var secs, overhead []float64
	for i, f := range first {
		unit := undisturbed(base[i])
		secs = append(secs, f...)
		for _, s := range f {
			overhead = append(overhead, s/unit)
		}
	}
	layer["smat.first_result_ms_p50"] = median(secs) * 1e3
	layer["smat.first_result_ms_p99"] = percentile(secs, 99) * 1e3
	layer["smat.overhead_spmv_p50"] = median(overhead)
}

// minTrafficBytes is the least memory traffic one SpMV in the given
// representation can move: every stored index and value once, x once, y
// once (8-byte values, 8-byte int indices). Exact, computed, not measured.
func minTrafficBytes(mat *kernels.Mat[float64]) float64 {
	rows, cols := mat.Dims()
	vec := 8 * float64(rows+cols)
	switch mat.Format {
	case matrix.FormatCSR:
		return vec + 16*float64(mat.CSR.NNZ()) + 8*float64(rows+1)
	case matrix.FormatCOO:
		return vec + 24*float64(mat.COO.NNZ())
	case matrix.FormatDIA:
		return vec + 8*float64(len(mat.DIA.Data)) + 8*float64(len(mat.DIA.Offsets))
	case matrix.FormatELL:
		return vec + 16*float64(len(mat.ELL.Data))
	}
	return 0
}

// allocsPerCall counts heap allocations per call of fn over n calls.
func allocsPerCall(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
