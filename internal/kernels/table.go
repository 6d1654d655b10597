package kernels

import "smat/internal/matrix"

// The kernel library is generated, not enumerated. Each format family
// declares one table (csrFamily, cooFamily, ...) whose rows are loop bodies;
// a row lists the partitions its body is instantiated over, and
// Library.instantiate expands body × partition into the registered Kernel and
// BatchKernel values: Strategies is the body's bits or'ed with the
// partition's, the name is assembled from their fragments, and every
// instance runs through the one runner, binding.run.

// partition says how an instance's work items are split across the plan's
// threads; each selects one of Plan's bounds slices.
type partition uint8

const (
	// whole is no split: the caller runs the body over [0, extent).
	whole partition = iota
	// byRows is Plan.RowBounds: even ranges of rows (BCSR: block rows).
	byRows
	// byNNZ is Plan.NNZBounds: CSR row ranges of equal nonzero count.
	byNNZ
	// byNNZSole is byNNZ in a family with no byRows instances beside it
	// (batched CSR), where it goes by the plain "_parallel".
	byNNZSole
	// byEntries is Plan.EntryBounds: equal ranges of COO entries, cut on row
	// boundaries.
	byEntries
)

// partitions holds each partition's name fragment and strategy bits.
var partitions = [...]struct {
	frag  string
	strat Strategy
}{
	whole:     {frag: ""},
	byRows:    {frag: "_parallel", strat: StratParallel},
	byNNZ:     {frag: "_parallel_nnz", strat: StratParallel | StratNNZBalance},
	byNNZSole: {frag: "_parallel", strat: StratParallel | StratNNZBalance},
	byEntries: {frag: "_parallel", strat: StratParallel | StratNNZBalance},
}

// bounds selects the partition's chunk bounds from a non-Serial plan.
//
//smat:hotpath
func (p partition) bounds(plan *Plan) []int {
	switch p {
	case byRows:
		return plan.RowBounds
	case byNNZ, byNNZSole:
		return plan.NNZBounds
	case byEntries:
		return plan.EntryBounds
	}
	return nil
}

// body is one table row: a loop body, what it contributes to a kernel's
// identity, and the partitions it is instantiated over. An instance is named
// name + fragment + suffix, the fragment being the partition's, or alone on
// the unsplit instance.
type body[T matrix.Float] struct {
	name   string // family, with the body's own tag where it leads ("dia_blocked")
	alone  string // the whole instance's fragment ("_basic", "_rowmajor")
	suffix string // the body's tag where it trails ("_unroll4", "_u8")
	strat  Strategy
	params Params // the template point of a single-vector body: its unroll depth
	// chunk computes work items [lo, hi); run, set instead of chunk, is a
	// hand-written runner for what is not one body over one partition: the
	// diagonal-major DIA and slot-major ELL traversals, which sweep the whole
	// matrix once per diagonal or slot and have no row range to hand out, and
	// HYB's ELL pass followed by its COO tail.
	chunk rangeFn[T]
	run   runFn[T]
	over  []partition
}

// instance is the name of the row's instance over p.
func (b *body[T]) instance(p partition) string {
	if p == whole {
		return b.name + b.alone + b.suffix
	}
	return b.name + partitions[p].frag + b.suffix
}

// strategies is the strategy set of the row's instance over p.
func (b *body[T]) strategies(p partition) Strategy { return b.strat | partitions[p].strat }

// bind is what the row's instance over p runs.
func (b *body[T]) bind(p partition) binding[T] {
	return binding[T]{chunk: b.chunk, hand: b.run, part: p}
}

// family is one format's kernel table.
type family[T matrix.Float] struct {
	format        matrix.Format
	single, batch []body[T]
}

// instantiate registers every body × partition instance of a family. The
// chunk function values in the rows were materialised when the table was
// built, once per library: materialising a generic function value inside
// generic code allocates (it captures the type dictionary), and doing that
// per call would break the steady-state zero-allocation contract.
func (l *Library[T]) instantiate(fam family[T]) {
	for i := range fam.single {
		b := &fam.single[i]
		for _, p := range b.over {
			l.Register(&Kernel[T]{Name: b.instance(p), Format: fam.format, Strategies: b.strategies(p), Params: b.params, binding: b.bind(p)})
		}
	}
	for i := range fam.batch {
		b := &fam.batch[i]
		for _, p := range b.over {
			l.RegisterBatch(&BatchKernel[T]{Name: b.instance(p), Format: fam.format, Strategies: b.strategies(p), binding: b.bind(p)})
		}
	}
}

// binding is what a Kernel or BatchKernel runs: a body and its partition.
type binding[T matrix.Float] struct {
	chunk rangeFn[T]
	hand  runFn[T]
	part  partition
}

// serialPlan is the plan every whole instance runs under, whatever the
// matrix's own plan says.
var serialPlan = Plan{Threads: 1, BatchK: 1, Serial: true}

// run is the one runner: the body over the full extent on the caller when
// the instance is unsplit or the plan is Serial, else over the partition's
// bounds through dispatch. k is the batch width, 1 for a single vector.
//
//smat:hotpath
func (b *binding[T]) run(m *Mat[T], x, y []T, k int, ex exec[T]) {
	if b.part == whole {
		ex.plan = &serialPlan
	}
	switch {
	case b.hand != nil:
		b.hand(m, x, y, k, ex)
	case ex.plan.Serial:
		b.chunk(m, x, y, k, 0, m.extent())
	default:
		ex.dispatch(b.part.bounds(ex.plan), b.chunk, m, x, y, k)
	}
}

// extent is the number of work items a chunk body ranges over: COO entries,
// BCSR block rows, rows elsewhere (HYB has its own runner).
//
//smat:hotpath
func (m *Mat[T]) extent() int {
	switch m.Format {
	case matrix.FormatCSR:
		return m.CSR.Rows
	case matrix.FormatCOO:
		return m.COO.NNZ()
	case matrix.FormatDIA:
		return m.DIA.Rows
	case matrix.FormatELL:
		return m.ELL.Rows
	case matrix.FormatBCSR:
		return m.BCSR.BlockRows()
	}
	return 0
}
