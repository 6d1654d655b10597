package kernels

// Batched (multi-vector) SpMV: Y = A·X for k right-hand sides held in the
// interleaved layout xb[col*k+j] / yb[row*k+j]. Interleaving makes the k
// values per matrix column contiguous, so each loaded vals[jj]/colIdx[jj]
// pair is amortised over a unit-stride streak of k multiply-adds — the
// arithmetic-intensity lever single-vector SpMV lacks (every A element read
// from memory buys exactly one FLOP pair there).
//
// Every batch kernel tiles the RHS dimension with one cascade of register
// tiles: an eight-wide pass (eight independent accumulators live per loaded
// matrix entry), then a four-wide pass, then a scalar column loop over the
// k mod 4 columns left. A column's accumulation order does not depend on the
// tile it falls in, so the product's bits do not depend on how k splits into
// tiles; the scalar loop's order matches the format's single-vector kernel —
// at k=1 it is all that runs, so csr_batch is bit-for-bit csr_basic,
// dia_batch is bit-for-bit dia_rowmajor, and so on (pinned by the batched
// oracle). One body per format: a narrower tile alone loses to the cascade
// (EXPERIMENTS.md, "One tiled body per format").
