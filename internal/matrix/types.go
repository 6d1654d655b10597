// Package matrix implements the sparse matrix storage formats used by SMAT:
// CSR, COO, DIA and ELL (the four basic formats of the paper's Section 2.1),
// a dense reference representation, and the structural operations the rest of
// the system is built on (format conversion, transposition, sparse
// matrix-matrix products).
//
// All formats are generic over the element type (float32 or float64), which
// realises the paper's single-/double-precision axis with one code path.
package matrix

import (
	"fmt"
	"math/rand/v2"
)

// Float is the set of element types supported by every format and kernel.
type Float interface {
	~float32 | ~float64
}

// CSR is the compressed sparse row format: the paper's default and the type
// behind SMAT's unified programming interface.
//
// RowPtr has Rows+1 entries; row i occupies ColIdx[RowPtr[i]:RowPtr[i+1]] and
// Vals[RowPtr[i]:RowPtr[i+1]]. Column indices are strictly increasing within
// each row.
type CSR[T Float] struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Vals       []T
}

// COO is the coordinate format. Entries are sorted by (row, col) with no
// duplicates; keeping entries row-sorted lets parallel kernels partition on
// row boundaries without write conflicts.
type COO[T Float] struct {
	Rows, Cols int
	RowIdx     []int
	ColIdx     []int
	Vals       []T
}

// DIA is the diagonal format. Offsets holds the (strictly increasing) offsets
// of the stored diagonals relative to the main diagonal (0), negative below,
// positive above. Data is diagonal-major with stride Rows:
//
//	A[r, r+Offsets[d]] == Data[d*Rows + r]
//
// Positions outside the matrix, and structural zeros on a stored diagonal,
// hold 0 (the zero-filling the paper's ER_DIA feature measures).
type DIA[T Float] struct {
	Rows, Cols int
	Offsets    []int
	Data       []T
}

// ELL is the ELLPACK format. Every row stores exactly Width entries
// (zero-padded beyond its actual nonzeros) in row-major order:
//
//	slot j of row r is Data[r*Width + j] with column ColIdx[r*Width + j]
//
// Padding slots have value 0 and column index 0. A CSR matrix whose rows all
// hold Width entries is already this layout: its ELL form (ToELLFrom) is a
// view sharing the matrix's ColIdx and Vals, the way its COO form shares them.
type ELL[T Float] struct {
	Rows, Cols int
	Width      int
	ColIdx     []int
	Data       []T
}

// Format identifies one of the four basic storage formats.
type Format int

const (
	FormatCSR Format = iota
	FormatCOO
	FormatDIA
	FormatELL
	numFormats
)

// Formats lists all basic formats in the paper's runtime evaluation order
// (DIA first, COO last; see Section 6 "Rule Tailoring and Grouping").
var Formats = [...]Format{FormatDIA, FormatELL, FormatCSR, FormatCOO}

// String returns the conventional upper-case name of the format.
func (f Format) String() string {
	switch f {
	case FormatCSR:
		return "CSR"
	case FormatCOO:
		return "COO"
	case FormatDIA:
		return "DIA"
	case FormatELL:
		return "ELL"
	case FormatHYB:
		return "HYB"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat converts a format name ("CSR", "coo", ...) to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "CSR", "csr":
		return FormatCSR, nil
	case "COO", "coo":
		return FormatCOO, nil
	case "DIA", "dia":
		return FormatDIA, nil
	case "ELL", "ell":
		return FormatELL, nil
	case "HYB", "hyb":
		return FormatHYB, nil
	}
	return 0, fmt.Errorf("matrix: unknown format %q", s)
}

// NNZ returns the number of stored nonzeros.
func (m *CSR[T]) NNZ() int { return len(m.Vals) }

// NNZ returns the number of stored entries.
func (m *COO[T]) NNZ() int { return len(m.Vals) }

// NNZ returns the number of structurally nonzero entries actually present on
// the stored diagonals (zero fill is not counted).
func (m *DIA[T]) NNZ() int {
	n := 0
	for _, v := range m.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// NNZ returns the number of non-padding entries.
func (m *ELL[T]) NNZ() int {
	n := 0
	for _, v := range m.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Stored returns the number of element slots the representation holds,
// padding included. Conversion cost scales linearly with it (every slot is
// written once), so it is the work term of the amortisation payoff model in
// internal/autotune: a conversion time measured on one matrix transfers to a
// structurally similar one by the ratio of their Stored counts.
func (m *CSR[T]) Stored() int { return len(m.Vals) }

// Stored returns the number of stored entries (COO holds no padding).
func (m *COO[T]) Stored() int { return len(m.Vals) }

// Stored returns the number of element slots including diagonal zero fill.
func (m *DIA[T]) Stored() int { return len(m.Data) }

// Stored returns the number of element slots including row padding.
func (m *ELL[T]) Stored() int { return len(m.Data) }

// Validate checks the structural invariants of the CSR representation. It
// writes nothing: the matrix carries no mark of having been checked.
func (m *CSR[T]) Validate() error {
	_, err := m.Sign()
	return err
}

// Signature is a 64-bit content hash of a CSR sparsity pattern — RowPtr and
// ColIdx, never the values — under a multiplier drawn once per process: equal
// patterns sign equally within a process, however their arrays are held, and
// a signature means nothing to another process. Zero is no pattern's signature;
// it stands for "unsigned". A signature identifies a pattern the way any hash
// does, almost surely: what is looked up under one must be checked against the
// matrix before it is trusted (ErrStructureMismatch).
type Signature uint64

// signMul is the per-process odd multiplier of Sign's two polynomial chains:
// the only process-wide state a signature has.
var signMul = rand.Uint64() | 1

// Sign is Validate that also returns the pattern's signature: the validation
// pass reads every row pointer and column index anyway, so it folds them into
// the hash as it goes — multiply-add chains over each row's columns, seeded
// with the row's end and length, and one over the rows.
func (m *CSR[T]) Sign() (Signature, error) {
	if m.Rows < 0 || m.Cols < 0 {
		return 0, fmt.Errorf("csr: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return 0, fmt.Errorf("csr: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if len(m.ColIdx) != len(m.Vals) {
		return 0, fmt.Errorf("csr: ColIdx length %d != Vals length %d", len(m.ColIdx), len(m.Vals))
	}
	if m.RowPtr[0] != 0 {
		return 0, fmt.Errorf("csr: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.Rows] != len(m.Vals) {
		return 0, fmt.Errorf("csr: RowPtr[last] = %d, want %d", m.RowPtr[m.Rows], len(m.Vals))
	}
	h, bad := signPattern(m.RowPtr[1:], m.ColIdx, m.Cols, signMul)
	if bad >= 0 {
		return 0, m.rowError(bad)
	}
	// The chains carry nothing from high bits to low ones; one avalanche round
	// lets users of the signature take any of its bits.
	h ^= h >> 32
	h *= signRowMul
	h ^= h >> 29
	if h == 0 {
		h = 1
	}
	return Signature(h), nil
}

// signPattern is Sign's pass over the rows, whose ends are rowEnds: it returns
// the hash, or the index of the first row that breaks an invariant. It is its
// own function, free of the matrix and of error construction, so that the
// per-entry loop keeps its values in registers (as a generic method that also
// builds the errors it spilled them, at twice the cost per entry).
func signPattern(rowEnds, cols []int, ncols int, mul uint64) (h uint64, bad int) {
	h = mul
	lo := 0
	for i, hi := range rowEnds {
		if lo > hi || hi > len(cols) {
			return 0, i
		}
		// Two entries a step, each on its own multiply-add chain: one chain runs
		// at its latency, two hide under the checks. prev ≥ -1, so c ≤ prev also
		// catches every negative column, and a pair's larger column bounds both.
		prev := -1
		even, odd := uint64(hi), uint64(hi-lo)
		k := lo
		for ; k+1 < hi; k += 2 {
			c0, c1 := cols[k], cols[k+1]
			if c0 <= prev || c1 <= c0 || c1 >= ncols {
				return 0, i
			}
			prev = c1
			even = even*mul + uint64(c0)
			odd = odd*mul + uint64(c1)
		}
		if k < hi {
			c := cols[k]
			if c <= prev || c >= ncols {
				return 0, i
			}
			even = even*mul + uint64(c)
		}
		h = h*signRowMul + (even + odd*signLaneMul)
		lo = hi
	}
	return h, -1
}

// signRowMul is the fixed odd multiplier of the chain over the rows,
// signLaneMul the one that sets a row's second chain apart from its first.
const (
	signRowMul  = 0xff51afd7ed558ccd
	signLaneMul = 0xc4ceb9fe1a85ec53
)

// rowError names what signPattern found wrong with row i: a row end before
// its start; else the first bad entry among those that exist; else a row end
// past the stored entries (which breaks monotonicity further down, so the
// entries are reported first).
func (m *CSR[T]) rowError(i int) error {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	if lo > hi {
		return fmt.Errorf("csr: RowPtr not monotone at row %d", i)
	}
	prev := -1
	for _, c := range m.ColIdx[lo:min(hi, len(m.ColIdx))] {
		if c < 0 || c >= m.Cols {
			return fmt.Errorf("csr: column %d out of range in row %d", c, i)
		}
		if c <= prev {
			return fmt.Errorf("csr: columns not strictly increasing in row %d", i)
		}
		prev = c
	}
	return fmt.Errorf("csr: RowPtr[%d] = %d past the %d stored entries", i+1, hi, len(m.ColIdx))
}

// Validate checks the structural invariants of the COO representation.
func (m *COO[T]) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("coo: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowIdx) != len(m.Vals) || len(m.ColIdx) != len(m.Vals) {
		return fmt.Errorf("coo: index/value length mismatch %d/%d/%d",
			len(m.RowIdx), len(m.ColIdx), len(m.Vals))
	}
	for k := range m.Vals {
		r, c := m.RowIdx[k], m.ColIdx[k]
		if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
			return fmt.Errorf("coo: entry %d at (%d,%d) out of range", k, r, c)
		}
		if k > 0 {
			pr, pc := m.RowIdx[k-1], m.ColIdx[k-1]
			if r < pr || (r == pr && c <= pc) {
				return fmt.Errorf("coo: entries not sorted/deduplicated at %d", k)
			}
		}
	}
	return nil
}

// Validate checks the structural invariants of the DIA representation.
func (m *DIA[T]) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("dia: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.Data) != len(m.Offsets)*m.Rows {
		return fmt.Errorf("dia: Data length %d, want %d", len(m.Data), len(m.Offsets)*m.Rows)
	}
	for d, off := range m.Offsets {
		if d > 0 && off <= m.Offsets[d-1] {
			return fmt.Errorf("dia: offsets not strictly increasing at %d", d)
		}
		if off <= -m.Rows || off >= m.Cols {
			return fmt.Errorf("dia: offset %d outside matrix", off)
		}
		for r := 0; r < m.Rows; r++ {
			c := r + off
			if (c < 0 || c >= m.Cols) && m.Data[d*m.Rows+r] != 0 {
				return fmt.Errorf("dia: nonzero outside matrix at diag %d row %d", off, r)
			}
		}
	}
	return nil
}

// Validate checks the structural invariants of the ELL representation.
func (m *ELL[T]) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("ell: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if m.Width < 0 {
		return fmt.Errorf("ell: negative width %d", m.Width)
	}
	if len(m.Data) != m.Width*m.Rows || len(m.ColIdx) != m.Width*m.Rows {
		return fmt.Errorf("ell: Data/ColIdx length %d/%d, want %d",
			len(m.Data), len(m.ColIdx), m.Width*m.Rows)
	}
	for k, c := range m.ColIdx {
		if c < 0 || c >= m.Cols {
			if !(c == 0 && m.Cols == 0) {
				return fmt.Errorf("ell: column %d out of range at slot %d", c, k)
			}
		}
	}
	return nil
}

// At returns the element at (r, c) by binary search within the row.
func (m *CSR[T]) At(r, c int) T {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.ColIdx[mid] == c:
			return m.Vals[mid]
		case m.ColIdx[mid] < c:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (m *CSR[T]) Clone() *CSR[T] {
	return &CSR[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Vals:   append([]T(nil), m.Vals...),
	}
}

// RowDegree returns the number of stored entries in row r.
func (m *CSR[T]) RowDegree(r int) int { return m.RowPtr[r+1] - m.RowPtr[r] }
