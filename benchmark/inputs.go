package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"smat/internal/corpus"
	"smat/internal/gen"
	"smat/internal/matrix"
)

// The four structural classes the paper's formats map to; every workload
// draws from all of them so no format's code path goes unmeasured.
var classNames = [4]string{"DIA", "ELL", "CSR", "COO"}

// input is one generated matrix with the vectors the workloads multiply it
// by and the structural hash recorded in the result.
type input struct {
	name  string
	class int // index into classNames
	m     *matrix.CSR[float64]
	x     []float64
	hash  uint64
}

// spec names a generator call. Structure parameters are fixed by the spec;
// the seed drives only the random structure and values drawn inside it, so
// two seeds give different matrices of the same size and shape — run-to-run
// spread then measures the machine, not the draw.
type spec struct {
	name  string
	class int
	build func(rng *rand.Rand) *matrix.CSR[float64]
}

// band is the diagonal offsets of a full band of half-width k.
func band(k int) []int {
	offs := make([]int, 0, 2*k+1)
	for d := -k; d <= k; d++ {
		offs = append(offs, d)
	}
	return offs
}

// inputRNG is input i's own random stream under seed, so adding an input
// never perturbs the others.
func inputRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// newInput draws the vector m is multiplied by and hashes m's structure.
func newInput(name string, class int, m *matrix.CSR[float64], rng *rand.Rand) *input {
	x := make([]float64, m.Cols)
	for j := range x {
		x[j] = float64(rng.Intn(17)-8) / 8
	}
	return &input{name: name, class: class, m: m, x: x, hash: hashCSR(m)}
}

// buildInputs materialises specs under seed.
func buildInputs(specs []spec, seed int64) []*input {
	out := make([]*input, len(specs))
	for i, s := range specs {
		rng := inputRNG(seed, i)
		out[i] = newInput(s.name, s.class, s.build(rng), rng)
	}
	return out
}

// hashCSR is the FNV-1a hash of a matrix's dimensions, RowPtr and ColIdx:
// the proof in the result that two runs multiplied the same structures.
func hashCSR(m *matrix.CSR[float64]) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(m.Rows)
	put(m.Cols)
	for _, v := range m.RowPtr {
		put(v)
	}
	for _, v := range m.ColIdx {
		put(v)
	}
	return h.Sum64()
}

// combineHashes folds the per-input hashes into the one number a result
// reports.
func combineHashes(ins []*input) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, in := range ins {
		binary.LittleEndian.PutUint64(buf[:], in.hash)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// coldCorpusSeed fixes cold_tune's roster: every -seed multiplies the same
// structures, so run-to-run spread measures the machine, not the draw. It is
// not the seed the shipped model was trained under.
const coldCorpusSeed = 20260928

// coldInputs is the never-seen-matrix roster of cold_tune: every stride-th
// entry of the synthetic collection internal/corpus composes (all application
// domains, all four structural classes), kept when its nonzero count lies in
// [loNNZ, hiNNZ]. The seed draws the values and the vector.
func coldInputs(p preset, seed int64) []*input {
	var ins []*input
	for i, e := range corpus.New(p.coldScale, coldCorpusSeed).Sample(p.coldStride) {
		m := e.Matrix()
		if nnz := m.NNZ(); nnz < p.coldLoNNZ || nnz > p.coldHiNNZ {
			continue
		}
		rng := inputRNG(seed, i)
		for j := range m.Vals {
			m.Vals[j] = float64(rng.Intn(15)+1) / 8
		}
		ins = append(ins, newInput(e.Name, 0, m, rng))
	}
	return ins
}

// serveSpecs is serve_hit's template set: two matrices per class, the small
// one near the kernels' 8192-entry serial cutoff and the large one well
// above it, so both the serial body and the pool dispatch serve requests.
func serveSpecs(scale float64) []spec {
	s := func(n int) int { return int(float64(n) * scale) }
	return []spec{
		{"dia_band5_small", 0, func(rng *rand.Rand) *matrix.CSR[float64] { return gen.MultiDiagonal[float64](s(1400), band(2), rng) }},
		{"dia_lap2d_large", 0, func(*rand.Rand) *matrix.CSR[float64] { return gen.Laplacian2D5pt[float64](s(100), 100) }},
		{"ell_deg3_small", 1, func(rng *rand.Rand) *matrix.CSR[float64] { return gen.ConstantDegree[float64](s(2400), 3, rng) }},
		{"ell_incid4_large", 1, func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.BipartiteIncidence[float64](s(14000), s(14000)/5, 4, rng)
		}},
		{"csr_rand20_small", 2, func(rng *rand.Rand) *matrix.CSR[float64] { return gen.RandomUniform[float64](s(400), s(400), 20, rng) }},
		{"csr_rand60_large", 2, func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.RandomUniform[float64](s(1000), s(1000), 60, rng)
		}},
		{"coo_road_small", 3, func(rng *rand.Rand) *matrix.CSR[float64] { return gen.RoadNetwork[float64](s(2200), rng) }},
		{"coo_plaw_large", 3, func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.PreferentialAttachment[float64](s(6000), 4, rng)
		}},
	}
}

// steadySpecs is steady_spmv's set: two out-of-L2 matrices per class
// (20–30 MB of CSR each against a 4 MiB L2 at scale 1).
func steadySpecs(scale float64) []spec {
	s := func(n int) int { return int(float64(n) * scale) }
	c := func(n int) int { return int(float64(n) * math.Cbrt(scale)) }
	return []spec{
		{"dia_band35", 0, func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.MultiDiagonal[float64](s(40000), band(17), rng)
		}},
		{"dia_7pt", 0, func(*rand.Rand) *matrix.CSR[float64] { return gen.Laplacian3D7pt[float64](c(56), c(56), c(56)) }},
		{"ell_deg3", 1, func(rng *rand.Rand) *matrix.CSR[float64] { return gen.ConstantDegree[float64](s(400000), 3, rng) }},
		{"ell_incid4", 1, func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.BipartiteIncidence[float64](s(300000), s(50000), 4, rng)
		}},
		{"csr_rand90", 2, func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.RandomUniform[float64](s(14000), s(14000), 90, rng)
		}},
		{"csr_rand150", 2, func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.RandomUniform[float64](s(9000), s(9000), 150, rng)
		}},
		{"coo_road", 3, func(rng *rand.Rand) *matrix.CSR[float64] { return gen.RoadNetwork[float64](s(300000), rng) }},
		{"coo_plaw", 3, func(rng *rand.Rand) *matrix.CSR[float64] {
			return gen.PreferentialAttachment[float64](s(120000), 4, rng)
		}},
	}
}

// batchSpecs is batch_spmm's set: one matrix per class from steadySpecs.
func batchSpecs(scale float64) []spec {
	all := steadySpecs(scale)
	return []spec{all[0], all[2], all[4], all[6]}
}
