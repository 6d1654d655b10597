// Package kr is the kernelreg analyzer fixture: miniature kernel tables
// mirroring internal/kernels (family literals of body rows, a partitions
// fragment table, rangeFn chunk funcvals, a newPlan partitioner) with
// deliberate violations.
package kr

// Format mirrors matrix.Format.
type Format int

const (
	FormatCSR Format = iota
	FormatCOO
	FormatDIA
	FormatELL
	FormatHYB
	numFormats // unexported: exempt from coverage
)

// Plan mirrors kernels.Plan; Serial is the small-matrix cutoff.
type Plan struct {
	Serial bool
	Chunks int
}

type exec struct{ plan *Plan }

type runFn func(ex exec)

type rangeFn func(ex exec, lo, hi int)

type partition int

const (
	whole partition = iota
	byRows
	byNNZ
	byNowhere
)

// partitions mirrors kernels.partitions; byNowhere has no entry.
var partitions = map[partition]struct {
	frag  string
	strat int
}{
	whole:  {frag: ""},
	byRows: {frag: "-par", strat: 1},
	byNNZ:  {frag: "-par", strat: 3},
}

// body mirrors kernels.body.
type body struct {
	name, alone, suffix string
	strat               int
	chunk               rangeFn
	run                 runFn
	over                []partition
}

// family mirrors kernels.family. DIA has no family at all.
type family struct { // want `format FormatDIA has no registered kernel` `format FormatDIA has no registered batch kernel`
	format        Format
	single, batch []body
}

// --- chunk bodies and hand-written runners (top-level funcvals) -----------

func csrChunk(ex exec, lo, hi int) {}
func cooChunk(ex exec, lo, hi int) {}
func ellChunk(ex exec, lo, hi int) {}
func hybWhole(ex exec)             {}

var ellVar rangeFn = ellChunk

var nameVar = "ell"

// --- run factories --------------------------------------------------------

// goodFactory takes already-bound chunk funcvals and honours the serial
// cutoff; referencing them inside the closure is the point.
func goodFactory(first, second rangeFn) runFn {
	return func(ex exec) {
		if ex.plan.Serial {
			first(ex, 0, 2)
			return
		}
		first(ex, 0, 1)
		second(ex, 1, 2)
	}
}

// badFactoryConvInClosure rebuilds the funcval on every call.
func badFactoryConvInClosure() runFn {
	return func(ex exec) {
		if ex.plan.Serial {
			return
		}
		chunk := rangeFn(ellChunk) // want `inside the per-call closure`
		chunk(ex, 0, 1)
	}
}

// badFactoryNoSerial fans out unconditionally.
func badFactoryNoSerial() runFn {
	chunk := rangeFn(ellChunk)
	return func(ex exec) { // want `never checks the plan's Serial cutoff`
		chunk(ex, 0, 1)
	}
}

// badFactoryLocalChunk converts a closure instead of a top-level function.
func badFactoryLocalChunk() runFn {
	local := func(ex exec, lo, hi int) {}
	chunk := rangeFn(local) // want `chunk must be a top-level function`
	return func(ex exec) {
		if ex.plan.Serial {
			return
		}
		chunk(ex, 0, 1)
	}
}

// badFactoryNoLit never returns a closure at all.
func badFactoryNoLit() runFn { // want `must return its per-call closure`
	return runFn(hybWhole)
}

// badParamFactory re-dispatches on a value parameter inside the per-call
// closure.
func badParamFactory(tile int) runFn {
	chunk := rangeFn(csrChunk)
	return func(ex exec) {
		if ex.plan.Serial || tile == 2 { // want `references parameter tile inside the per-call closure`
			return
		}
		chunk(ex, 0, 1)
	}
}

// --- tables ---------------------------------------------------------------

// csrTable: "csr-par" is produced twice in the single namespace (byRows and
// byNNZ share a fragment); the batched namespace may reuse single names but
// not its own.
func csrTable() family {
	return family{
		format: FormatCSR,
		single: []body{
			{name: "csr", alone: "-serial", chunk: csrChunk, over: []partition{whole, byRows}},
			{name: "csr", chunk: csrChunk, strat: 2, over: []partition{byNNZ}}, // want `duplicate kernel name "csr-par"`
		},
		batch: []body{
			{name: "csr", alone: "-serial", chunk: csrChunk, over: []partition{whole, byRows}},
			{name: "csr", alone: "-serial", chunk: csrChunk, over: []partition{whole}}, // want `duplicate kernel name "csr-serial"`
		},
	}
}

// cooTable: rows without a body, with a closure, over nothing, over an
// undeclared partition.
func cooTable() family {
	return family{
		format: FormatCOO,
		single: []body{
			{name: "coo", alone: "-serial", chunk: cooChunk, over: []partition{whole}},
			{name: "coo", suffix: "-nobody", over: []partition{whole}},                                       // want `has no chunk or run function`
			{name: "coo", suffix: "-closure", chunk: func(ex exec, lo, hi int) {}, over: []partition{whole}}, // want `not a closure`
			{name: "coo", suffix: "-nowhere", chunk: cooChunk},                                               // want `instantiated over no partition`
			{name: "coo", suffix: "-lost", chunk: cooChunk, over: []partition{byNowhere}},                    // want `partition byNowhere has no entry`
		},
		batch: []body{
			{name: "coo-batch", chunk: cooChunk, over: []partition{whole, byRows}},
		},
	}
}

// ellTable: chunk and run values that are not top-level functions, the bad
// factories, and names that are not literals.
func ellTable() family {
	return family{
		format: FormatELL,
		single: []body{
			{name: "ell", alone: "-serial", chunk: ellChunk, over: []partition{whole}},
			{name: "ell", suffix: "-var", chunk: ellVar, over: []partition{byRows}}, // want `chunk must be a top-level function`
			{name: "ell", suffix: "-good", run: goodFactory(ellChunk, cooChunk), over: []partition{byRows}},
			{name: "ell", suffix: "-conv", run: badFactoryConvInClosure(), over: []partition{byRows}},
			{name: "ell", suffix: "-noserial", run: badFactoryNoSerial(), over: []partition{byRows}},
			{name: "ell", suffix: "-local", run: badFactoryLocalChunk(), over: []partition{byRows}},
			{name: "ell", suffix: "-nolit", run: badFactoryNoLit(), over: []partition{byRows}},
			{name: "ell", suffix: "-param", run: badParamFactory(2), over: []partition{byRows}},
			{name: "ell", suffix: "-runclosure", run: func(ex exec) {}, over: []partition{byRows}}, // want `run must be a top-level function, not a closure`
			{name: "", chunk: ellChunk, over: []partition{whole}},                                  // want `non-empty string literal`
			{name: nameVar, chunk: ellChunk, over: []partition{whole}},                             // want `non-empty string literal`
		},
		batch: []body{
			{name: "ell-batch", chunk: ellChunk, over: []partition{whole}},
		},
	}
}

// hybTable: the only whole single row is strategic and the only batched row
// is never instantiated whole, so neither namespace has an anchor.
func hybTable() family {
	return family{ // want `format FormatHYB has no basic \(strategy-free\) kernel` `format FormatHYB has no basic \(strategy-free\) batch kernel`
		format: FormatHYB,
		single: []body{
			{name: "hyb", strat: 1, run: hybWhole, over: []partition{whole}},
		},
		batch: []body{
			{name: "hyb-batch", chunk: ellChunk, over: []partition{byRows}},
		},
	}
}

// newPlan is the partitioner; FormatDIA has no case.
func newPlan(f Format) *Plan { // want `format FormatDIA has no partitioner case`
	switch f {
	case FormatCSR, FormatCOO:
		return &Plan{Chunks: 4}
	case FormatELL:
		return &Plan{Chunks: 2}
	case FormatHYB:
		return &Plan{Chunks: 8}
	}
	return &Plan{Serial: true}
}

var _ = numFormats
