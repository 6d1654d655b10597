package matrix

// Transpose returns the transpose of the matrix in CSR form, built with a
// counting sort over columns (O(nnz + rows + cols)).
func (m *CSR[T]) Transpose() *CSR[T] {
	t := &CSR[T]{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()),
		Vals:   make([]T, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for c := 0; c < m.Cols; c++ {
		t.RowPtr[c+1] += t.RowPtr[c]
	}
	next := append([]int(nil), t.RowPtr[:m.Cols]...)
	for r := 0; r < m.Rows; r++ {
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			c := m.ColIdx[jj]
			dst := next[c]
			next[c]++
			t.ColIdx[dst] = r
			t.Vals[dst] = m.Vals[jj]
		}
	}
	return t
}

// Mul computes the sparse product A·B (Gustavson's row-wise SpGEMM). It is
// the substrate for the AMG Galerkin coarse-grid operator.
func (m *CSR[T]) Mul(b *CSR[T]) *CSR[T] {
	if m.Cols != b.Rows {
		panic("matrix: Mul dimension mismatch")
	}
	out := &CSR[T]{Rows: m.Rows, Cols: b.Cols, RowPtr: make([]int, m.Rows+1)}
	// Dense accumulator with a generation stamp so it is cleared in O(row
	// result size), not O(Cols), per row.
	acc := make([]T, b.Cols)
	stamp := make([]int, b.Cols)
	gen := 0
	var cols []int
	for r := 0; r < m.Rows; r++ {
		gen++
		cols = cols[:0]
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			k := m.ColIdx[jj]
			av := m.Vals[jj]
			for kk := b.RowPtr[k]; kk < b.RowPtr[k+1]; kk++ {
				c := b.ColIdx[kk]
				if stamp[c] != gen {
					stamp[c] = gen
					acc[c] = 0
					cols = append(cols, c)
				}
				acc[c] += av * b.Vals[kk]
			}
		}
		// CSR requires sorted columns within the row.
		insertionSortInts(cols)
		for _, c := range cols {
			if v := acc[c]; v != 0 {
				out.ColIdx = append(out.ColIdx, c)
				out.Vals = append(out.Vals, v)
			}
		}
		out.RowPtr[r+1] = len(out.Vals)
	}
	return out
}

// SortInts sorts an int slice in place with the same hybrid
// insertion/quick sort Mul uses on its result rows, so external SpGEMM
// implementations (internal/kernels) can reproduce Mul's output bit for
// bit, ties included.
func SortInts(a []int) { insertionSortInts(a) }

// insertionSortInts sorts small integer slices in place. SpGEMM result rows
// are short and nearly sorted, where insertion sort beats sort.Ints.
func insertionSortInts(a []int) {
	if len(a) > 64 {
		quickSortInts(a)
		return
	}
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func quickSortInts(a []int) {
	for len(a) > 64 {
		p := partitionInts(a)
		if p < len(a)-p {
			quickSortInts(a[:p])
			a = a[p+1:]
		} else {
			quickSortInts(a[p+1:])
			a = a[:p]
		}
	}
	insertionSortInts(a)
}

func partitionInts(a []int) int {
	mid := len(a) / 2
	hi := len(a) - 1
	// Median-of-three pivot to the end.
	if a[0] > a[mid] {
		a[0], a[mid] = a[mid], a[0]
	}
	if a[0] > a[hi] {
		a[0], a[hi] = a[hi], a[0]
	}
	if a[mid] > a[hi] {
		a[mid], a[hi] = a[hi], a[mid]
	}
	a[mid], a[hi] = a[hi], a[mid]
	pivot := a[hi]
	i := 0
	for j := 0; j < hi; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi] = a[hi], a[i]
	return i
}

// TripleProduct computes R·A·P, the Galerkin coarse-grid operator of AMG.
func TripleProduct[T Float](r, a, p *CSR[T]) *CSR[T] {
	return r.Mul(a).Mul(p)
}

// Diagonal returns the main diagonal as a vector (zero where absent).
func (m *CSR[T]) Diagonal() []T {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]T, m.Rows)
	for r := 0; r < n; r++ {
		d[r] = m.At(r, r)
	}
	return d
}

// Scale multiplies every stored value by s, in place.
func (m *CSR[T]) Scale(s T) {
	for i := range m.Vals {
		m.Vals[i] *= s
	}
}

// Add returns A + B for identically sized matrices.
func (m *CSR[T]) Add(b *CSR[T]) *CSR[T] {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("matrix: Add dimension mismatch")
	}
	out := &CSR[T]{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for r := 0; r < m.Rows; r++ {
		i, iEnd := m.RowPtr[r], m.RowPtr[r+1]
		j, jEnd := b.RowPtr[r], b.RowPtr[r+1]
		for i < iEnd || j < jEnd {
			switch {
			case j >= jEnd || (i < iEnd && m.ColIdx[i] < b.ColIdx[j]):
				out.ColIdx = append(out.ColIdx, m.ColIdx[i])
				out.Vals = append(out.Vals, m.Vals[i])
				i++
			case i >= iEnd || b.ColIdx[j] < m.ColIdx[i]:
				out.ColIdx = append(out.ColIdx, b.ColIdx[j])
				out.Vals = append(out.Vals, b.Vals[j])
				j++
			default:
				if v := m.Vals[i] + b.Vals[j]; v != 0 {
					out.ColIdx = append(out.ColIdx, m.ColIdx[i])
					out.Vals = append(out.Vals, v)
				}
				i++
				j++
			}
		}
		out.RowPtr[r+1] = len(out.Vals)
	}
	return out
}

// Identity returns the n×n identity matrix in CSR form.
func Identity[T Float](n int) *CSR[T] {
	m := &CSR[T]{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, n),
		Vals:   make([]T, n),
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Vals[i] = 1
	}
	return m
}
