// Package hp is the hotpath analyzer fixture: annotated functions exercising
// every rule (positive cases carry want comments) next to unannotated and
// clean annotated functions that must stay silent.
package hp

import (
	"fmt"
	"math/rand"
	"time"
)

type plan struct {
	Serial bool
	Bounds []int
}

type mat struct {
	rows int
	vals []float64
}

type runFn func(m *mat, x, y []float64)

// --- positive cases -------------------------------------------------------

//smat:hotpath
func badCalls(m *mat, x, y []float64) {
	fmt.Println(m.rows) // want `calls fmt.Println`
	_ = time.Now()      // want `calls time.Now`
	_ = rand.Float64()  // want `calls math/rand.Float64`
	defer doNothing()   // want `uses defer`
	panic(m.rows)       // want `panics with a non-constant value`
}

// badFactoryNoLit never returns a closure, so the directive is inert.
//
//smat:hotpath-factory
func badFactoryNoLit() int { // want `returns no func literal`
	return 0
}

//smat:hotpath-factory
func badFactory() runFn {
	// Setup statements are exempt: the factory runs once, at registration.
	stamp := time.Now()
	return func(m *mat, x, y []float64) {
		_ = stamp
		_ = time.Now() // want `calls time.Now`
	}
}

// --- negative cases -------------------------------------------------------

//smat:hotpath
func goodChunk(m *mat, x, y []float64, lo, hi int) {
	clear(y[lo:hi])
	for i := lo; i < hi; i++ {
		y[i] += m.vals[i] * x[i]
	}
	if len(y) == 0 {
		panic("hp: empty y") // constant panic value: static data, no box
	}
}

// goodAllocates allocates and spawns: the zero-allocation tests, not this
// analyzer, catch allocations on the paths they run.
//
//smat:hotpath
func goodAllocates(m *mat) []int {
	b := make([]int, m.rows)
	go doNothing()
	return append(b, 1)
}

// unannotated may do anything.
func coldHelper() {
	fmt.Println("cold", rand.Float64())
}

func doNothing() {}
