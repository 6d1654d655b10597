package autotune

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"smat/internal/matrix"
)

// TestConvertCostsMatchArtifact holds the conversion costs a deferred tune
// predicts with to the committed BENCH_convert.json they were read off:
// within a quarter of each format's measured ns per stored slot, the spread
// of that measurement between regenerations on one box. A regenerated
// artifact that moves further needs the constants read off again.
func TestConvertCostsMatchArtifact(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_convert.json")
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Data struct {
			NsPerSlot map[string]float64 `json:"convert_ns_per_slot"`
		} `json:"data"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	for _, f := range []matrix.Format{matrix.FormatDIA, matrix.FormatELL, matrix.FormatCOO} {
		measured, ok := art.Data.NsPerSlot[f.String()]
		if !ok {
			t.Errorf("BENCH_convert.json has no convert_ns_per_slot for %v", f)
			continue
		}
		if c := convertNsPerSlot(f); math.Abs(c-measured) > 0.25*measured {
			t.Errorf("%v: %.2f ns per slot, BENCH_convert.json measured %.2f", f, c, measured)
		}
	}
}
