// Package mmio reads and writes Matrix Market exchange files (.mtx) in
// coordinate form, so external matrices — including the UF collection the
// paper trains on, when available — can be fed to the tuner.
//
// Supported: object "matrix", format "coordinate", fields real / integer /
// pattern, symmetries general / symmetric / skew-symmetric. Complex matrices
// are rejected (the paper excludes them too).
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"smat/internal/matrix"
)

// MaxDim is the largest row or column count Read accepts from a size line.
// The CSR row pointer alone costs 8·rows bytes, so an attacker-controlled
// header would otherwise turn one short stream into an arbitrarily large
// allocation; 2^27 (~134M, a 1GiB row pointer) is past every matrix in the
// UF collection while keeping the worst case bounded.
const MaxDim = 1 << 27

// maxNNZPrealloc caps how much the declared nonzero count is trusted as a
// pre-allocation hint (~24MiB of triples); beyond it the slice grows against
// the actual input.
const maxNNZPrealloc = 1 << 20

// Read parses a Matrix Market coordinate stream into CSR. Size-line values
// are treated as untrusted: dimensions above MaxDim are rejected and the
// declared nonzero count never drives more than a bounded pre-allocation. A
// skew-symmetric file with a nonzero diagonal entry is malformed and an
// error. Entries repeated in the file, and the mirrored entries a symmetric
// file implies, are summed in the order they are read, by
// matrix.FromTriples in O(nnz + rows).
func Read(r io.Reader) (*matrix.CSR[float64], error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) != 5 || header[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("mmio: bad header %q", sc.Text())
	}
	object, format, field, symmetry := header[1], header[2], header[3], header[4]
	if object != "matrix" {
		return nil, fmt.Errorf("mmio: unsupported object %q", object)
	}
	if format != "coordinate" {
		return nil, fmt.Errorf("mmio: unsupported format %q (only coordinate)", format)
	}
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("mmio: unsupported field %q", field)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", symmetry)
	}

	// Size line (skipping comments).
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("mmio: missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("mmio: bad size line %q: %w", line, err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("mmio: negative sizes %d %d %d", rows, cols, nnz)
	}
	if rows > MaxDim || cols > MaxDim {
		return nil, fmt.Errorf("mmio: dimensions %dx%d exceed the %d limit", rows, cols, MaxDim)
	}

	// The size line is untrusted input: a crafted header like
	// "1 1 9000000000000" must not drive a multi-terabyte pre-allocation.
	// The declared nnz is only a capacity hint, clamped so memory grows with
	// the entries actually present in the stream. A symmetric or
	// skew-symmetric file stores one triangle, and each entry off the
	// diagonal becomes two triples.
	capHint := min(nnz, maxNNZPrealloc)
	if symmetry != "general" {
		capHint = min(2*capHint, maxNNZPrealloc)
	}
	ts := make([]matrix.Triple[float64], 0, capHint)
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("mmio: expected %d entries, got %d", nnz, read)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("mmio: entry %d malformed: %q", read, line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d row: %w", read, err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d col: %w", read, err)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: entry %d value: %w", read, err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mmio: entry %d (%d,%d) outside %dx%d", read, i, j, rows, cols)
		}
		if i == j && v != 0 && symmetry == "skew-symmetric" {
			return nil, fmt.Errorf("mmio: entry %d (%d,%d) = %g is on the diagonal of a skew-symmetric matrix, which must be zero", read, i, j, v)
		}
		ts = append(ts, matrix.Triple[float64]{Row: i - 1, Col: j - 1, Val: v})
		if i != j {
			switch symmetry {
			case "symmetric":
				ts = append(ts, matrix.Triple[float64]{Row: j - 1, Col: i - 1, Val: v})
			case "skew-symmetric":
				ts = append(ts, matrix.Triple[float64]{Row: j - 1, Col: i - 1, Val: -v})
			}
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mmio: %w", err)
	}
	return matrix.FromTriples(rows, cols, ts)
}

// Write emits the matrix in Matrix Market coordinate real general form.
func Write(w io.Writer, m *matrix.CSR[float64]) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for r := 0; r < m.Rows; r++ {
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", r+1, m.ColIdx[jj]+1, m.Vals[jj]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
