package smat

// HoldConversion reschedules the deferred conversion of a's operator slot as a
// first call too fast for the clock schedules it, 2³⁰ products on, so that a
// test or benchmark can run the handle ahead of its conversion for as long as
// it likes. It reports whether the slot had a deferred conversion.
func HoldConversion[T Float](a *Matrix[T]) bool {
	s := a.tuned.Load()
	if s == nil || s.lazy == nil {
		return false
	}
	s.lazy.Schedule(0, 1)
	return true
}
