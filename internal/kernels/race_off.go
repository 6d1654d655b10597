//go:build !race

package kernels

// raceEnabled reports whether the build runs under the race detector: the
// pool scales its spin budget by it, allocation-counting tests skip on it.
const raceEnabled = false
