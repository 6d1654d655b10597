// Package kr is the kernelreg analyzer fixture: miniature kernel tables
// mirroring internal/kernels (body rows holding rangeFn chunk funcvals or
// hand-written runners, and a run factory) with deliberate violations.
package kr

type exec struct{ serial bool }

type runFn func(ex exec)

type rangeFn func(ex exec, lo, hi int)

// body mirrors kernels.body.
type body struct {
	name  string
	chunk rangeFn
	run   runFn
}

// --- chunk bodies and hand-written runners (top-level funcvals) -----------

func csrChunk(ex exec, lo, hi int)        {}
func genChunk[T any](ex exec, lo, hi int) {}
func hybWhole(ex exec)                    {}

var ellVar rangeFn = csrChunk

var factoryVar = phases

// --- run factories --------------------------------------------------------

// phases takes already-bound chunk funcvals; referencing them inside the
// closure is the point.
func phases(first, second rangeFn) runFn {
	return func(ex exec) {
		first(ex, 0, 1)
		second(ex, 1, 2)
	}
}

// tiled re-dispatches on a value parameter inside the per-call closure.
func tiled(chunk rangeFn, tile int) runFn {
	return func(ex exec) {
		if tile == 2 { // want `references parameter tile inside the per-call closure`
			return
		}
		chunk(ex, 0, 1)
	}
}

// --- tables ---------------------------------------------------------------

func table() []body {
	return []body{
		{name: "csr", chunk: csrChunk},
		{name: "gen", chunk: genChunk[float64]},
		{name: "hyb", run: hybWhole},
		{name: "phases", run: phases(csrChunk, genChunk[float32])},
		{name: "tiled", run: tiled(csrChunk, 2)},
		{name: "closure", chunk: func(ex exec, lo, hi int) {}},                    // want `chunk must be a top-level function`
		{name: "var", chunk: ellVar},                                              // want `chunk must be a top-level function`
		{name: "runclosure", run: func(ex exec) {}},                               // want `run must be a top-level function`
		{name: "factoryvar", run: factoryVar(csrChunk, csrChunk)},                 // want `run factory must be a top-level function call`
		{name: "factoryarg", run: phases(csrChunk, func(ex exec, lo, hi int) {})}, // want `factory argument must be a top-level function`
	}
}
