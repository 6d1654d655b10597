package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"smat/internal/matrix"
)

// goldenCase is one exported generator, built at size 0 (small) or 1
// (larger) from a seeded rng. dups marks the generators that emit duplicate
// coordinates three or more deep, whose summed values depend on the order
// the assembly adds them in; their structure is pinned, their values only
// to a relative tolerance.
type goldenCase struct {
	name  string
	dups  bool
	build func(size int, rng *rand.Rand) *matrix.CSR[float64]
}

func goldenCases() []goldenCase {
	pick := func(size int, small, large int) int {
		if size == 0 {
			return small
		}
		return large
	}
	return []goldenCase{
		{"Laplacian2D5pt", false, func(s int, _ *rand.Rand) *matrix.CSR[float64] {
			return Laplacian2D5pt[float64](pick(s, 17, 120), pick(s, 13, 90))
		}},
		{"Laplacian2D9pt", false, func(s int, _ *rand.Rand) *matrix.CSR[float64] {
			return Laplacian2D9pt[float64](pick(s, 17, 120), pick(s, 13, 90))
		}},
		{"Laplacian3D7pt", false, func(s int, _ *rand.Rand) *matrix.CSR[float64] {
			return Laplacian3D7pt[float64](pick(s, 7, 30), pick(s, 6, 25), pick(s, 5, 20))
		}},
		{"MultiDiagonal", false, func(s int, rng *rand.Rand) *matrix.CSR[float64] {
			if s == 0 {
				return MultiDiagonal[float64](300, []int{-5, -1, 0, 1, 5}, rng)
			}
			return MultiDiagonal[float64](5000, []int{-40, -3, 0, 2, 17, 900}, rng)
		}},
		{"SparseDiagonal", false, func(s int, rng *rand.Rand) *matrix.CSR[float64] {
			if s == 0 {
				return SparseDiagonal[float64](300, []int{-2, 0, 3}, 0.4, rng)
			}
			return SparseDiagonal[float64](5000, []int{-50, -1, 0, 1, 50}, 0.7, rng)
		}},
		{"ConstantDegree", false, func(s int, rng *rand.Rand) *matrix.CSR[float64] {
			return ConstantDegree[float64](pick(s, 300, 5000), pick(s, 5, 40), rng)
		}},
		{"NearConstantDegree", false, func(s int, rng *rand.Rand) *matrix.CSR[float64] {
			return NearConstantDegree[float64](pick(s, 300, 5000), pick(s, 5, 40), pick(s, 2, 10), rng)
		}},
		{"RandomUniform", false, func(s int, rng *rand.Rand) *matrix.CSR[float64] {
			return RandomUniform[float64](pick(s, 200, 3000), pick(s, 300, 2500), float64(pick(s, 6, 50)), rng)
		}},
		{"BlockDiagonal", false, func(s int, rng *rand.Rand) *matrix.CSR[float64] {
			return BlockDiagonal[float64](pick(s, 10, 100), pick(s, 7, 40), rng)
		}},
		{"PreferentialAttachment", false, func(s int, rng *rand.Rand) *matrix.CSR[float64] {
			return PreferentialAttachment[float64](pick(s, 300, 4000), pick(s, 3, 40), rng)
		}},
		{"RMAT", true, func(s int, rng *rand.Rand) *matrix.CSR[float64] {
			return RMAT[float64](pick(s, 8, 12), pick(s, 8, 16), rng)
		}},
		{"RoadNetwork", true, func(s int, rng *rand.Rand) *matrix.CSR[float64] {
			return RoadNetwork[float64](pick(s, 500, 20000), rng)
		}},
		{"BipartiteIncidence", false, func(s int, rng *rand.Rand) *matrix.CSR[float64] {
			return BipartiteIncidence[float64](pick(s, 300, 4000), pick(s, 100, 2000), pick(s, 4, 48), rng)
		}},
	}
}

// goldenRow is what the golden table pins of one generated matrix: an
// FNV-1a hash of Rows, Cols, RowPtr and ColIdx, one of the values' bits,
// and the values' sum.
type goldenRow struct {
	structure, values uint64
	sum               float64
}

func goldenKey(name string, size int, seed int64) string {
	return fmt.Sprintf("%s/size%d/seed%d", name, size, seed)
}

func hashMatrix(m *matrix.CSR[float64]) goldenRow {
	hs, hv := fnv.New64a(), fnv.New64a()
	var b [8]byte
	put := func(h interface{ Write([]byte) (int, error) }, x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(hs, uint64(m.Rows))
	put(hs, uint64(m.Cols))
	for _, p := range m.RowPtr {
		put(hs, uint64(p))
	}
	for _, c := range m.ColIdx {
		put(hs, uint64(c))
	}
	var sum float64
	for _, v := range m.Vals {
		put(hv, math.Float64bits(v))
		sum += v
	}
	return goldenRow{hs.Sum64(), hv.Sum64(), sum}
}

// goldenSeeds are the two seeds every case is built at.
var goldenSeeds = []int64{1, 7}

// TestGeneratedInputsUnchanged holds every exported generator, at two sizes
// and two seeds, to the matrices it built before assembly became a counting
// sort: the same structure always, and the same value bits wherever no
// coordinate is emitted three or more times.
func TestGeneratedInputsUnchanged(t *testing.T) {
	seen := 0
	for _, c := range goldenCases() {
		for size := 0; size < 2; size++ {
			for _, seed := range goldenSeeds {
				key := goldenKey(c.name, size, seed)
				want, ok := golden[key]
				if !ok {
					t.Errorf("%s: no golden row", key)
					continue
				}
				seen++
				m := c.build(size, rand.New(rand.NewSource(seed)))
				validate(t, m)
				got := hashMatrix(m)
				if got.structure != want.structure {
					t.Errorf("%s: structure hash %#x, want %#x", key, got.structure, want.structure)
				}
				if !c.dups && got.values != want.values {
					t.Errorf("%s: value hash %#x, want %#x", key, got.values, want.values)
				}
				if math.Abs(got.sum-want.sum) > 1e-12*math.Abs(want.sum) {
					t.Errorf("%s: value sum %.17g, want %.17g", key, got.sum, want.sum)
				}
			}
		}
	}
	if seen != len(golden) {
		t.Errorf("golden table has %d rows, the cases %d", len(golden), seen)
	}
}

// golden was computed by hashMatrix over the generators' output before the
// counting-sort assembly, when FromTriples sorted a copy of the triples with
// sort.Slice.
var golden = map[string]goldenRow{
	"Laplacian2D5pt/size0/seed1":         {0x3aef3597afe8574e, 0xaf26eaf49290e575, 60},
	"Laplacian2D5pt/size0/seed7":         {0x3aef3597afe8574e, 0xaf26eaf49290e575, 60},
	"Laplacian2D5pt/size1/seed1":         {0x54d9868faaeb89a7, 0x56e886cb2ac67ee5, 420},
	"Laplacian2D5pt/size1/seed7":         {0x54d9868faaeb89a7, 0x56e886cb2ac67ee5, 420},
	"Laplacian2D9pt/size0/seed1":         {0x2eb485ff267359c3, 0x3ea78574508e7165, 176},
	"Laplacian2D9pt/size0/seed7":         {0x2eb485ff267359c3, 0x3ea78574508e7165, 176},
	"Laplacian2D9pt/size1/seed1":         {0x1fe778501846af4d, 0x11621850b61ff3e5, 1256},
	"Laplacian2D9pt/size1/seed7":         {0x1fe778501846af4d, 0x11621850b61ff3e5, 1256},
	"Laplacian3D7pt/size0/seed1":         {0x08bd0b02040437a8, 0x2a93f29f65f9c985, 214},
	"Laplacian3D7pt/size0/seed7":         {0x08bd0b02040437a8, 0x2a93f29f65f9c985, 214},
	"Laplacian3D7pt/size1/seed1":         {0x6f1e3bf4e9074f7a, 0x4185d6dc679d8545, 3700},
	"Laplacian3D7pt/size1/seed7":         {0x6f1e3bf4e9074f7a, 0x4185d6dc679d8545, 3700},
	"MultiDiagonal/size0/seed1":          {0xee346fdf76ea7b58, 0xafdf3d3c410ed07e, 1486.8788537594312},
	"MultiDiagonal/size0/seed7":          {0xee346fdf76ea7b58, 0xdbc7edbd4b762765, 1493.8750970209053},
	"MultiDiagonal/size1/seed1":          {0xa007ed09211556f4, 0x7bc1ee74a4ee5df6, 28996.275087031318},
	"MultiDiagonal/size1/seed7":          {0xa007ed09211556f4, 0x5607646ac4753215, 29077.043486864353},
	"SparseDiagonal/size0/seed1":         {0xc3ebd30300378bb8, 0x89006fb558c1aa6d, 349.61782441227325},
	"SparseDiagonal/size0/seed7":         {0x9feb10e9a7d1c508, 0x2b48666417da62a5, 349.0711732969578},
	"SparseDiagonal/size1/seed1":         {0x3b4ec3474b3fb04e, 0x038a2db102ed7417, 17480.37452013748},
	"SparseDiagonal/size1/seed7":         {0xa93dfb18ab8a8110, 0x71238caae0e4f4a7, 17485.889612776427},
	"ConstantDegree/size0/seed1":         {0xaf4e58d08ff9e72f, 0xbdf0f23e8223fed6, 1485.6691860792484},
	"ConstantDegree/size0/seed7":         {0x90e1ad06f658433b, 0x785683f50d1367ed, 1502.4935984329147},
	"ConstantDegree/size1/seed1":         {0x67c6d04355c6c345, 0x0414ff5e46f2cc8d, 199618.41205496673},
	"ConstantDegree/size1/seed7":         {0x2c4f1ab45dccfed8, 0x8cfd1a14366c1d1a, 200117.28754406425},
	"NearConstantDegree/size0/seed1":     {0x608ee0be27da22d6, 0x7669d78d760eb50a, 1495.16176095526},
	"NearConstantDegree/size0/seed7":     {0x3aca0f1e16d32e8d, 0x671f8f66678e018a, 1534.1024683385867},
	"NearConstantDegree/size1/seed1":     {0x2cb95ebd47777882, 0xd204012a4dabcaf2, 199517.40665653622},
	"NearConstantDegree/size1/seed7":     {0xf1d741ea9dce38cd, 0x3e29e66797be59d9, 199729.01928781185},
	"RandomUniform/size0/seed1":          {0xad5859e31527971b, 0x7739006cebf344f5, 1171.8425651711068},
	"RandomUniform/size0/seed7":          {0x6905a967b419e272, 0xa76c8a6fdad52837, 1255.7566778168703},
	"RandomUniform/size1/seed1":          {0xc3833056aa185eec, 0xca2b9fc2e4c5a328, 168299.212230379},
	"RandomUniform/size1/seed7":          {0xeec61eaa3026274f, 0x7d252f17f5c4c7b8, 170306.4105861751},
	"BlockDiagonal/size0/seed1":          {0x9b3687278b1a3791, 0x35d6adf01e939f1b, 488.7441388048076},
	"BlockDiagonal/size0/seed7":          {0x9b3687278b1a3791, 0x6d7c41c702c9d577, 498.40485980112635},
	"BlockDiagonal/size1/seed1":          {0x210e2d36902354ac, 0x03384a3b947d0e17, 159810.61025147577},
	"BlockDiagonal/size1/seed7":          {0x210e2d36902354ac, 0xbe24e0aa06316f4f, 160070.3681359796},
	"PreferentialAttachment/size0/seed1": {0x17a991ac361cf192, 0x6336350c941ad2ad, 1785.0118172224013},
	"PreferentialAttachment/size0/seed7": {0x09b2bea7f0b5a8a0, 0x4a409bd379fb0115, 1773.3196716260168},
	"PreferentialAttachment/size1/seed1": {0xf5569860b350c4f4, 0x381ccaeca29ab89d, 318049.9175415588},
	"PreferentialAttachment/size1/seed7": {0x202d1bb83b92f188, 0x087e262394c28229, 318551.09485694376},
	"RMAT/size0/seed1":                   {0x18c249960b21ac5e, 0x835494ca7ca2fd64, 2038.1152866983643},
	"RMAT/size0/seed7":                   {0x9ff3a1a24f3b980c, 0x09698d8a52e0a0d1, 2016.5084523004027},
	"RMAT/size1/seed1":                   {0x760011eb15630cca, 0x9a46ffa39dd91aa1, 65395.25895734767},
	"RMAT/size1/seed7":                   {0x975a01d529a84e40, 0xe4cb7f2ec31e4059, 65383.58731483876},
	"RoadNetwork/size0/seed1":            {0x69679c6db4f238e3, 0xa82abf0b2a15aad1, 1993.5324076938082},
	"RoadNetwork/size0/seed7":            {0x9f9bfdde6d59a269, 0x4be54a3845dee294, 2047.940411408375},
	"RoadNetwork/size1/seed1":            {0xd90c278327631e80, 0xd71b246c81263995, 79791.58465517918},
	"RoadNetwork/size1/seed7":            {0xf4c3013e0e2e3c1f, 0x9d5727054662bde4, 79980.709848791},
	"BipartiteIncidence/size0/seed1":     {0xc7602f6d7e2a601f, 0x5cb70389689cb347, 1188.9175076000965},
	"BipartiteIncidence/size0/seed7":     {0xc0d3835db7d5f700, 0xbdd24faa2549fdb5, 1193.8473365073805},
	"BipartiteIncidence/size1/seed1":     {0x6f608a1ad9de6044, 0x8e3e4e46bc319594, 191712.38187808043},
	"BipartiteIncidence/size1/seed7":     {0xbaa856151e045ed3, 0x28ab2ffa0709794c, 192128.5404134803},
}
