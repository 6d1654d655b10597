package atomicorder

import (
	"testing"

	"smat/internal/analysis/framework"
	"smat/internal/analysis/framework/analysistest"
)

func TestAtomicOrder(t *testing.T) {
	analysistest.Run(t, Analyzer, "./testdata/src/ao")
}

// TestRealTreeClean runs the analyzer over the packages whose protocols it
// was written for: the publish slots and the annotated barrier must verify
// clean.
func TestRealTreeClean(t *testing.T) {
	pkgs, err := framework.LoadCached(framework.LoadConfig{},
		"smat", "smat/internal/kernels", "smat/internal/autotune")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := framework.Run([]*framework.Analyzer{Analyzer}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
