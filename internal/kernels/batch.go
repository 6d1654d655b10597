package kernels

// Batched (multi-vector) SpMV: Y = A·X for k right-hand sides held in the
// interleaved layout xb[col*k+j] / yb[row*k+j]. Interleaving makes the k
// values per matrix column contiguous, so each loaded vals[jj]/colIdx[jj]
// pair is amortised over a unit-stride streak of k multiply-adds — the
// arithmetic-intensity lever single-vector SpMV lacks (every A element read
// from memory buys exactly one FLOP pair there).
//
// The four bodies a tuner binds (csr_batch, coo_batch, ell_batch, dia_batch;
// hyb_batch runs the ELL and COO ones) take the k columns in lanes of constant
// width: eight columns at a time while eight remain, then four, then the last
// three, two or one together — each lane one pass over the matrix data it
// needs, its accumulators in registers; no width re-walks a row once per
// column. The four are written like the swept single-vector
// bodies (DESIGN §7, "Loop bodies"): the operands are cut, outside the element
// loops, to lengths the compiler can carry — an entry's stretch of xb and its
// row of yb to the lane's width (xb[p:p+W:p+W]) — so the one check left per
// entry and lane is that cut at a data-dependent column. DIA runs the tiled
// traversal of its single-vector kernel: batchTileRows(k) rows of yb at a
// time, cleared, then crossed by the diagonals four at a time, each group
// loading a row's lane of yb once, adding its products in order and storing
// it back. ELL, stored row-major, runs CSR's row at a time.
//
// A column's products are added in the matrix's entry order starting from +0
// whatever lane the column falls in, so a product's bits do not depend on how
// k splits into lanes, on the chunking or on the thread count, and they are
// the bits of the row-at-a-time cascade these bodies replaced
// (TestBatchBodiesKeepParentBits, TestTileGroupingKeepsBits). At k=1 the order
// is the format's basic single-vector kernel's: csr_batch is bit-for-bit
// csr_basic, dia_batch is bit-for-bit dia_rowmajor, and so on (pinned by the
// batched oracle). One body per format: a narrower tile alone loses to the
// cascade (EXPERIMENTS.md, "One tiled body per format").

// batchTileRows is the row-tile size of the batched DIA and ELL traversals
// at width k: the tile's k·rows elements of yb are the tileRows elements of y
// the single-vector DIA traversal keeps in L1.
func batchTileRows(k int) int { return max(tileRows/k, 1) }
