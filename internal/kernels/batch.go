package kernels

// Batched (multi-vector) SpMV: Y = A·X for k right-hand sides held in the
// interleaved layout xb[col*k+j] / yb[row*k+j]. Interleaving makes the k
// values per matrix column contiguous, so each loaded vals[jj]/colIdx[jj]
// pair is amortised over a unit-stride streak of k multiply-adds — the
// arithmetic-intensity lever single-vector SpMV lacks (every A element read
// from memory buys exactly one FLOP pair there).
//
// All batch kernels tile the RHS dimension with a register tile whose width
// is a template parameter (Params.BatchTile, one of BatchTiles): full tiles
// keep that many independent accumulators live per matrix entry, and the
// remainder columns fall back to a scalar column loop whose accumulation
// order matches the format's single-vector kernel — at k=1 only the
// remainder loop runs regardless of tile width, so csr_batch is bit-for-bit
// csr_basic, dia_batch is bit-for-bit dia_rowmajor, and so on (pinned by the
// batched oracle). The unsuffixed kernels use DefaultBatchTile(format); the
// other widths are rows of their own in each family's table.
