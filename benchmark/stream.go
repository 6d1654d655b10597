package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"smat"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/refblas"
)

// engine is one way of multiplying an input: the tuned operator, or one of
// refblas's fixed-format entry points.
type engine struct {
	name   string
	format matrix.Format
	mul    func(x, y []float64) // the raw product, for refblas engines
	run    func()               // the timed call, bound to its vectors
	secs   []float64
}

// fixedEngines builds the refblas entry point of every format the matrix
// fits within probeMaxFill zero-fill — what a caller who must pick a format
// by hand can choose from.
func fixedEngines(lib *refblas.Lib[float64], m *matrix.CSR[float64]) []*engine {
	var out []*engine
	for _, f := range matrix.Formats {
		mat, err := kernels.Convert(m, f, probeMaxFill)
		if err != nil {
			continue
		}
		e := &engine{name: "refblas." + f.String(), format: f}
		switch f {
		case matrix.FormatCSR:
			e.mul = func(x, y []float64) { lib.CSRGeMV(mat.CSR, x, y) }
		case matrix.FormatCOO:
			e.mul = func(x, y []float64) { lib.COOGeMV(mat.COO, x, y) }
		case matrix.FormatDIA:
			e.mul = func(x, y []float64) { lib.DIAGeMV(mat.DIA, x, y) }
		case matrix.FormatELL:
			e.mul = func(x, y []float64) { lib.ELLGeMV(mat.ELL, x, y) }
		}
		out = append(out, e)
	}
	return out
}

// bestFixed returns the refblas engine with the smallest undisturbed time,
// and that time.
func bestFixed(engines []*engine) (*engine, float64) {
	var winner *engine
	best := math.Inf(1)
	for _, g := range engines {
		if t := undisturbed(g.secs); t > 0 && t < best {
			winner, best = g, t
		}
	}
	return winner, best
}

// yardstick is the engine op_cost_ref_spmv is measured in: one refSpMV on
// the input, into a vector of its own.
func yardstick(in *input) *engine {
	y := make([]float64, in.m.Rows)
	return &engine{name: "refSpMV", run: func() { refSpMV(in.m, in.x, y) }}
}

// stream is one input's prepared multiply streams: the tuned operation, the
// same work through each feasible refblas entry point, and the yardstick.
type stream struct {
	in     *input
	k      int // batch width; 0 for single-vector streams
	name   string
	flops  float64
	per    int // timed calls per visit
	tuned  *engine
	result []float64    // what the tuned engine writes; no other engine does
	check  func() error // holds result to the reference
	fixed  []*engine
	yard   *engine
}

const (
	// streamRounds is how many times runStreams visits each stream.
	streamRounds = 6
	// yardPerVisit is the timed yardstick calls per visit.
	yardPerVisit = 6
)

// runStreams times every stream in streamRounds rounds, visiting all streams
// inside each round, so one input's samples come from windows spread over
// the whole run and a disturbance lasting seconds cannot own any input's
// median. Each visit makes one untimed call first: with several inputs in
// rotation the matrix has left the caches since its last visit, and the
// workload is a steady stream, not a cold start. Within a visit the tuned
// calls, each refblas engine's calls and the yardstick's run back to back, so
// the baselines see the same machine as the tuned stream. The tuned result is
// poisoned before every visit and checked after its calls, outside the timed
// calls.
func runStreams(e *env, out *outcome, streams []*stream, span string) {
	req := 0
	runtime.GC()
	for r := 0; r < streamRounds; r++ {
		for _, s := range streams {
			poison(s.result)
			s.tuned.run()
			for c := 0; c < s.per; c++ {
				req++
				start := time.Now()
				s.tuned.run()
				d := time.Since(start)
				s.tuned.secs = append(s.tuned.secs, d.Seconds())
				e.tr.add(0, req, "kernels", span, start, d, false)
			}
			out.checks.op(s.check(), "%s: round %d of the stream", s.name, r)
			for _, g := range s.fixed {
				g.run()
				for c := 0; c < s.per; c++ {
					g.secs = append(g.secs, timeIt(g.run))
				}
			}
			s.yard.run()
			for c := 0; c < yardPerVisit; c++ {
				s.yard.secs = append(s.yard.secs, timeIt(s.yard.run))
			}
		}
	}
	for _, s := range streams {
		fixed, base := bestFixed(s.fixed)
		out.ops = append(out.ops, &opSamples{input: s.name, secs: s.tuned.secs, flops: s.flops, baseSec: base,
			refSec: undisturbed(s.yard.secs), note: s.tuned.name + " vs " + fixed.name})
	}
}

// perVisit turns a total call count into timed calls per visit.
func perVisit(calls int) int { return (calls + streamRounds - 1) / streamRounds }

// runSteady is steady_spmv. Unit operation: one Operator.MulVec on a large
// matrix tuned beforehand. The same number of calls goes through every
// feasible refblas entry point; the best of them is the baseline.
func runSteady(e *env, ins []*input) *outcome {
	out := newOutcome()
	tuner := smat.NewTuner[float64](e.model, smat.WithThreads(e.threads))
	defer tuner.Close()
	lib := refblas.New[float64](e.threads)
	var probe *steadyProbe
	if e.tr != nil {
		probe = newSteadyProbe(e)
		defer probe.close()
	}
	var streams []*stream
	for _, in := range ins {
		ref := newReference(in.m, in.x)
		// The refblas engines write a vector of their own, so the checks of
		// y during the stream judge the tuned operator alone.
		y, yFixed := make([]float64, in.m.Rows), make([]float64, in.m.Rows)
		a, err := handle(in)
		var op *smat.Operator[float64]
		if err == nil {
			op, err = tuner.Tune(a)
		}
		if err != nil {
			out.checks.op(err, "%s: Tune", in.name)
			continue
		}
		s := &stream{in: in, name: in.name, flops: 2 * float64(in.m.NNZ()), per: perVisit(e.count(1.7e7/float64(in.m.NNZ()), streamRounds)),
			tuned:  &engine{name: op.KernelName(), format: op.Format(), run: func() { op.MulVec(in.x, y) }},
			result: y, check: func() error { return ref.check(y) }, yard: yardstick(in)}
		for _, g := range fixedEngines(lib, in.m) {
			g.run = func() { g.mul(in.x, yFixed) }
			s.fixed = append(s.fixed, g)
			poison(yFixed)
			g.run() // warm, and the checked result
			out.checks.op(ref.check(yFixed), "%s: %s", in.name, g.name)
		}
		streams = append(streams, s)
		if probe != nil {
			probe.matrix(in, a, op)
		}
		runtime.GC() // drop the tuner's measured-and-rejected conversions before the next matrix
	}
	runStreams(e, out, streams, "Operator.MulVec")
	if probe != nil {
		for _, s := range streams {
			probe.fixedRates(s)
		}
		probe.emit(out.layer)
	}
	return out
}

// steadyProbe gathers steady_spmv's per-layer numbers on traced runs: the
// model's kernel of each format on that format's own class of matrix (rate,
// computed minimum traffic, bandwidth), every format's rate on every matrix
// (the exhaustive search selection accuracy is judged against), one-thread
// runs for parallel efficiency, and allocations per call.
type steadyProbe struct {
	e             *env
	hinted        *smat.Tuner[float64] // forces formats, same threads as the tuned stream
	single        *smat.Tuner[float64] // one thread, for parallel efficiency
	byFormat      map[matrix.Format][]float64
	intensity     map[matrix.Format][]float64
	fixedByFormat map[matrix.Format][]float64
	bestFixedRate []float64
	accurate      int
	matrices      int
	loss, eff     []float64
	allocs        float64
}

func newSteadyProbe(e *env) *steadyProbe {
	return &steadyProbe{
		e:             e,
		hinted:        smat.NewTuner[float64](e.model, smat.WithThreads(e.threads)),
		single:        smat.NewTuner[float64](e.model, smat.WithThreads(1)),
		byFormat:      map[matrix.Format][]float64{},
		intensity:     map[matrix.Format][]float64{},
		fixedByFormat: map[matrix.Format][]float64{},
	}
}

func (p *steadyProbe) close() {
	p.hinted.Close()
	p.single.Close()
}

// rate is the GFLOP/s of the median of n timed calls of run.
func rate(in *input, y []float64, n int, run func(x, y []float64)) float64 {
	run(in.x, y)
	return 2 * float64(in.m.NNZ()) / medianOf(n, func() { run(in.x, y) }) / 1e9
}

func (p *steadyProbe) matrix(in *input, a *smat.Matrix[float64], op *smat.Operator[float64]) {
	const calls = 15
	y := make([]float64, in.m.Rows)
	chosen := op.Format()
	p.matrices++

	// Every format the matrix fits, through the model's kernel for it.
	rates := map[matrix.Format]float64{}
	for _, f := range matrix.Formats {
		forced, err := p.hinted.Tune(a, smat.WithFormatHint(f))
		if err != nil {
			continue // fill guard
		}
		rates[f] = rate(in, y, calls, forced.MulVec)
		if f == classFormat[in.class] {
			p.byFormat[f] = append(p.byFormat[f], rates[f])
			if mat, err := kernels.Convert(in.m, f, p.e.model.MaxFill); err == nil {
				p.intensity[f] = append(p.intensity[f], 2*float64(in.m.NNZ())/minTrafficBytes(mat))
			}
		}
	}
	best := 0.0
	for _, r := range rates {
		best = math.Max(best, r)
	}
	if got := rates[chosen]; got > 0 {
		if got >= 0.95*best {
			p.accurate++
		}
		p.loss = append(p.loss, best/got)
	}

	// Parallel efficiency of the chosen format: T1 ÷ (p·Tp).
	if one, err := p.single.Tune(a, smat.WithFormatHint(chosen)); err == nil && rates[chosen] > 0 {
		p.eff = append(p.eff, rates[chosen]/rate(in, y, calls, one.MulVec)/float64(p.e.threads))
	}
	// Tune moved the handle's cached operator; op itself is unaffected.
	p.allocs = math.Max(p.allocs, allocsPerCall(50, func() { op.MulVec(in.x, y) }))

}

// fixedRates records a finished stream's refblas rates: the class's own
// format, and the best fixed format (the denominator of speedup_vs_fixed).
func (p *steadyProbe) fixedRates(s *stream) {
	bestRate := 0.0
	for _, g := range s.fixed {
		r := s.flops / median(g.secs) / 1e9
		bestRate = math.Max(bestRate, r)
		if g.format == classFormat[s.in.class] {
			p.fixedByFormat[g.format] = append(p.fixedByFormat[g.format], r)
		}
	}
	p.bestFixedRate = append(p.bestFixedRate, bestRate)
}

func (p *steadyProbe) emit(layer map[string]float64) {
	for _, f := range matrix.Formats {
		name := f.String()
		g := geomean(p.byFormat[f])
		fpb := geomean(p.intensity[f])
		layer["kernels.spmv_gflops."+name] = g
		layer["kernels.flop_per_byte."+name] = fpb
		layer["kernels.gbps."+name] = ratio(g, fpb)
		layer["refblas.gflops."+name] = geomean(p.fixedByFormat[f])
	}
	layer["refblas.best_fixed_gflops_geomean"] = geomean(p.bestFixedRate)
	layer["autotune.selection_accuracy"] = ratio(float64(p.accurate), float64(p.matrices))
	layer["autotune.selection_loss"] = geomean(p.loss)
	layer["kernels.parallel_efficiency"] = geomean(p.eff)
	layer["kernels.allocs_per_call"] = p.allocs
}

// batchWidths are batch_spmm's two widths: 8 runs the register-tiled SpMM
// kernel, 3 sits below the measured crossover and takes the gather loop.
var batchWidths = [2]int{8, 3}

// runBatch is batch_spmm. Unit operation: one Operator.MulVecBatch of width
// k on k interleaved vectors; each (matrix, k) pair is one input. Baseline:
// the best refblas entry point called k times, once per vector.
func runBatch(e *env, ins []*input) *outcome {
	out := newOutcome()
	tuner := smat.NewTuner[float64](e.model, smat.WithThreads(e.threads))
	defer tuner.Close()
	lib := refblas.New[float64](e.threads)
	var streams []*stream
	var tileBase, crossovers []float64
	for _, in := range ins {
		ref := newReference(in.m, in.x)
		a, err := handle(in)
		var op *smat.Operator[float64]
		if err == nil {
			op, err = tuner.Tune(a)
		}
		if err != nil {
			out.checks.op(err, "%s: Tune", in.name)
			continue
		}
		fixedAll := fixedEngines(lib, in.m)
		y1 := make([]float64, in.m.Rows)
		for _, k := range batchWidths {
			// Vector j is x·2⁻ʲ: exact scaling, so one reference serves every
			// column while a column mix-up still shows as a wrong scale.
			xb := make([]float64, in.m.Cols*k)
			xs := make([][]float64, k)
			for j := 0; j < k; j++ {
				xs[j] = make([]float64, in.m.Cols)
				for c, v := range in.x {
					xs[j][c] = math.Ldexp(v, -j)
					xb[c*k+j] = xs[j][c]
				}
			}
			yb := make([]float64, in.m.Rows*k)
			checkAll := func() error {
				for j := 0; j < k; j++ {
					if err := ref.checkScaled(yb, k, j, math.Ldexp(1, -j)); err != nil {
						return fmt.Errorf("column %d: %w", j, err)
					}
				}
				return nil
			}
			s := &stream{in: in, k: k, name: in.name + "@k" + strconv.Itoa(k), flops: 2 * float64(in.m.NNZ()*k),
				per:    perVisit(e.count(1.7e7/float64(in.m.NNZ()*k), streamRounds)),
				tuned:  &engine{name: op.KernelName(), format: op.Format(), run: func() { op.MulVecBatch(xb, yb, k) }},
				result: yb, check: checkAll, yard: yardstick(in)}
			for _, g := range fixedAll {
				s.fixed = append(s.fixed, &engine{name: g.name, format: g.format, run: func() {
					for j := 0; j < k; j++ {
						g.mul(xs[j], y1)
					}
				}})
			}
			streams = append(streams, s)
		}
		runtime.GC() // drop the tuner's measured-and-rejected conversions before the next matrix
		if e.tr != nil {
			tileBase = append(tileBase, rate(in, y1, 15, op.MulVec))
			c := op.Decision().BatchCrossover
			if c == smat.NeverBatch {
				c = 16 // beyond every probed width; keeps the median finite
			}
			crossovers = append(crossovers, float64(c))
		}
	}
	runStreams(e, out, streams, "Operator.MulVecBatch")
	if e.tr != nil {
		var k3, tileSpeedup []float64
		for i, s := range streams {
			perVector := s.flops / median(s.tuned.secs) / 1e9
			if s.k == batchWidths[0] {
				out.layer["kernels.spmm_gflops."+classNames[s.in.class]] = perVector
				tileSpeedup = append(tileSpeedup, perVector/tileBase[i/len(batchWidths)])
			} else {
				k3 = append(k3, perVector)
			}
		}
		out.layer["kernels.spmm_k3_gflops"] = geomean(k3)
		out.layer["kernels.spmm_tile_speedup"] = geomean(tileSpeedup)
		out.layer["kernels.batch_crossover_p50"] = median(crossovers)
	}
	return out
}
