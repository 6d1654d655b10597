package oracle

import (
	"testing"

	"smat/internal/matrix"
)

// TestCheckConvertSwap runs the background-conversion swap oracle over
// structures whose target formats genuinely convert: the swap must be
// invisible except as a bit-for-bit change between the two allowed answers.
func TestCheckConvertSwap(t *testing.T) {
	cases := []struct {
		spec    Spec
		targets []matrix.Format
	}{
		{diagBanded(), []matrix.Format{matrix.FormatDIA, matrix.FormatELL, matrix.FormatCOO}},
		{parallelLaplacian(), []matrix.Format{matrix.FormatDIA}},
	}
	for _, c := range cases {
		c := c
		for _, target := range c.targets {
			target := target
			t.Run(c.spec.Name+"/"+target.String(), func(t *testing.T) {
				t.Parallel()
				if err := CheckConvertSwap[float64](&c.spec, target, Options{}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCheckConvertSwapFloat32 exercises the float32 instantiation on one
// banded structure — the swap protocol and the bitwise properties are
// element-type generic.
func TestCheckConvertSwapFloat32(t *testing.T) {
	s := diagBanded()
	if err := CheckConvertSwap[float32](&s, matrix.FormatELL, Options{Threads: []int{1, 3}}); err != nil {
		t.Fatal(err)
	}
}
