package matrix

import "testing"

// validCSR is a small well-formed fixture the corruption cases mutate.
func validCSR() *CSR[float64] {
	return &CSR[float64]{
		Rows: 3, Cols: 4,
		RowPtr: []int{0, 2, 2, 4},
		ColIdx: []int{0, 2, 1, 3},
		Vals:   []float64{1, 2, 3, 4},
	}
}

func TestCSRValidate(t *testing.T) {
	if err := validCSR().Validate(); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	cases := map[string]func(*CSR[float64]){
		"negative-rows":      func(m *CSR[float64]) { m.Rows = -1; m.RowPtr = nil },
		"negative-cols":      func(m *CSR[float64]) { m.Cols = -1 },
		"rowptr-length":      func(m *CSR[float64]) { m.RowPtr = m.RowPtr[:3] },
		"colidx-vals-length": func(m *CSR[float64]) { m.ColIdx = m.ColIdx[:3] },
		"rowptr-first":       func(m *CSR[float64]) { m.RowPtr[0] = 1 },
		"rowptr-last":        func(m *CSR[float64]) { m.RowPtr[3] = 3 },
		"rowptr-monotone":    func(m *CSR[float64]) { m.RowPtr[1] = 3; m.RowPtr[2] = 1 },
		"col-out-of-range":   func(m *CSR[float64]) { m.ColIdx[3] = 4 },
		"col-negative":       func(m *CSR[float64]) { m.ColIdx[0] = -1 },
		"cols-not-sorted":    func(m *CSR[float64]) { m.ColIdx[0], m.ColIdx[1] = 2, 0 },
		"col-duplicate":      func(m *CSR[float64]) { m.ColIdx[1] = 0 },
	}
	for name, corrupt := range cases {
		m := validCSR()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCSRValidateEmptyDims(t *testing.T) {
	zero := &CSR[float64]{Rows: 0, Cols: 0, RowPtr: []int{0}}
	if err := zero.Validate(); err != nil {
		t.Errorf("0x0: %v", err)
	}
	zeroRows := &CSR[float64]{Rows: 0, Cols: 5, RowPtr: []int{0}}
	if err := zeroRows.Validate(); err != nil {
		t.Errorf("0x5: %v", err)
	}
	zeroCols := &CSR[float64]{Rows: 3, Cols: 0, RowPtr: []int{0, 0, 0, 0}}
	if err := zeroCols.Validate(); err != nil {
		t.Errorf("3x0: %v", err)
	}
	// A 3x0 matrix cannot store an entry: any stored column is out of range.
	bad := &CSR[float64]{Rows: 3, Cols: 0, RowPtr: []int{0, 1, 1, 1}, ColIdx: []int{0}, Vals: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Error("entry in 3x0 accepted")
	}
}

func validCOO() *COO[float64] {
	return &COO[float64]{
		Rows: 3, Cols: 4,
		RowIdx: []int{0, 0, 2},
		ColIdx: []int{1, 3, 0},
		Vals:   []float64{1, 2, 3},
	}
}

func TestCOOValidate(t *testing.T) {
	if err := validCOO().Validate(); err != nil {
		t.Fatalf("valid COO rejected: %v", err)
	}
	cases := map[string]func(*COO[float64]){
		"negative-rows":    func(m *COO[float64]) { m.Rows = -1 },
		"negative-cols":    func(m *COO[float64]) { m.Cols = -2 },
		"length-mismatch":  func(m *COO[float64]) { m.RowIdx = m.RowIdx[:2] },
		"row-out-of-range": func(m *COO[float64]) { m.RowIdx[2] = 3 },
		"col-out-of-range": func(m *COO[float64]) { m.ColIdx[1] = 4 },
		"row-negative":     func(m *COO[float64]) { m.RowIdx[0] = -1 },
		"unsorted-rows":    func(m *COO[float64]) { m.RowIdx[0], m.RowIdx[2] = 2, 0 },
		"unsorted-cols":    func(m *COO[float64]) { m.ColIdx[0], m.ColIdx[1] = 3, 1 },
		"duplicate":        func(m *COO[float64]) { m.ColIdx[1] = 1 },
	}
	for name, corrupt := range cases {
		m := validCOO()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	empty := &COO[float64]{Rows: 0, Cols: 0}
	if err := empty.Validate(); err != nil {
		t.Errorf("0x0: %v", err)
	}
	zeroCols := &COO[float64]{Rows: 4, Cols: 0}
	if err := zeroCols.Validate(); err != nil {
		t.Errorf("4x0: %v", err)
	}
}

func validDIA() *DIA[float64] {
	return &DIA[float64]{
		Rows: 3, Cols: 3,
		Offsets: []int{-1, 0, 2},
		Data: []float64{
			0, 4, 5, // offset -1: positions (1,0) (2,1); slot 0 padding
			1, 2, 3, // offset 0
			9, 0, 0, // offset 2: position (0,2); rows 1,2 fall outside
		},
	}
}

func TestDIAValidate(t *testing.T) {
	if err := validDIA().Validate(); err != nil {
		t.Fatalf("valid DIA rejected: %v", err)
	}
	cases := map[string]func(*DIA[float64]){
		"negative-rows":     func(m *DIA[float64]) { m.Rows = -1 },
		"negative-cols":     func(m *DIA[float64]) { m.Cols = -1 },
		"data-length":       func(m *DIA[float64]) { m.Data = m.Data[:8] },
		"offsets-unsorted":  func(m *DIA[float64]) { m.Offsets[0], m.Offsets[1] = 0, -1 },
		"offset-duplicate":  func(m *DIA[float64]) { m.Offsets[0] = 0 },
		"offset-below":      func(m *DIA[float64]) { m.Offsets[0] = -3 },
		"offset-above":      func(m *DIA[float64]) { m.Offsets[2] = 3 },
		"nonzero-past-edge": func(m *DIA[float64]) { m.Data[0] = 7 }, // (0,-1) is outside
	}
	for name, corrupt := range cases {
		m := validDIA()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDIAValidateEmptyDims(t *testing.T) {
	if err := (&DIA[float64]{}).Validate(); err != nil {
		t.Errorf("0x0: %v", err)
	}
	// Rows == 0 makes every offset violate off > -Rows; no diagonal can
	// exist, so Offsets must be empty.
	bad := &DIA[float64]{Rows: 0, Cols: 4, Offsets: []int{0}}
	if err := bad.Validate(); err == nil {
		t.Error("diagonal in 0x4 accepted")
	}
	badCols := &DIA[float64]{Rows: 4, Cols: 0, Offsets: []int{0}, Data: make([]float64, 4)}
	if err := badCols.Validate(); err == nil {
		t.Error("diagonal in 4x0 accepted")
	}
}

func validELL() *ELL[float64] {
	return &ELL[float64]{
		Rows: 3, Cols: 4, Width: 2,
		ColIdx: []int{0, 1, 0, 2, 3, 0},
		Data:   []float64{1, 2, 3, 4, 5, 0},
	}
}

func TestELLValidate(t *testing.T) {
	if err := validELL().Validate(); err != nil {
		t.Fatalf("valid ELL rejected: %v", err)
	}
	cases := map[string]func(*ELL[float64]){
		"negative-rows":    func(m *ELL[float64]) { m.Rows = -1; m.Width = -1 },
		"negative-cols":    func(m *ELL[float64]) { m.Cols = -1 },
		"negative-width":   func(m *ELL[float64]) { m.Width = -2 },
		"data-length":      func(m *ELL[float64]) { m.Data = m.Data[:4] },
		"colidx-length":    func(m *ELL[float64]) { m.ColIdx = m.ColIdx[:4] },
		"col-out-of-range": func(m *ELL[float64]) { m.ColIdx[3] = 4 },
		"col-negative":     func(m *ELL[float64]) { m.ColIdx[0] = -1 },
	}
	for name, corrupt := range cases {
		m := validELL()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestELLValidateEmptyDims(t *testing.T) {
	if err := (&ELL[float64]{}).Validate(); err != nil {
		t.Errorf("0x0: %v", err)
	}
	// Padding slots carry column index 0, which Validate permits only while
	// Cols == 0 pairs with an all-padding (zero-row or zero-width) layout.
	zeroRows := &ELL[float64]{Rows: 0, Cols: 6, Width: 3}
	if err := zeroRows.Validate(); err != nil {
		t.Errorf("0x6: %v", err)
	}
	zeroColsPadding := &ELL[float64]{Rows: 2, Cols: 0, Width: 1, ColIdx: []int{0, 0}, Data: []float64{0, 0}}
	if err := zeroColsPadding.Validate(); err != nil {
		t.Errorf("2x0 all-padding: %v", err)
	}
}

func validHYB() *HYB[float64] {
	return &HYB[float64]{
		ELL: &ELL[float64]{Rows: 3, Cols: 4, Width: 1, ColIdx: []int{0, 1, 2}, Data: []float64{1, 2, 3}},
		COO: &COO[float64]{Rows: 3, Cols: 4, RowIdx: []int{1}, ColIdx: []int{3}, Vals: []float64{9}},
	}
}

func TestHYBValidate(t *testing.T) {
	if err := validHYB().Validate(); err != nil {
		t.Fatalf("valid HYB rejected: %v", err)
	}
	cases := map[string]func(*HYB[float64]){
		"missing-ell":    func(m *HYB[float64]) { m.ELL = nil },
		"missing-coo":    func(m *HYB[float64]) { m.COO = nil },
		"bad-ell":        func(m *HYB[float64]) { m.ELL.ColIdx[0] = 9 },
		"bad-coo":        func(m *HYB[float64]) { m.COO.RowIdx[0] = 7 },
		"rows-disagree":  func(m *HYB[float64]) { m.COO.Rows = 5; m.COO.RowIdx[0] = 4 },
		"cols-disagree":  func(m *HYB[float64]) { m.COO.Cols = 9 },
		"negative-parts": func(m *HYB[float64]) { m.ELL.Rows = -1; m.COO.Rows = -1 },
	}
	for name, corrupt := range cases {
		m := validHYB()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	empty := &HYB[float64]{ELL: &ELL[float64]{}, COO: &COO[float64]{}}
	if err := empty.Validate(); err != nil {
		t.Errorf("0x0: %v", err)
	}
}
