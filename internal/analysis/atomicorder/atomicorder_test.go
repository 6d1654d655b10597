package atomicorder

import (
	"go/ast"
	"reflect"
	"strings"
	"testing"

	"smat/internal/analysis/framework"
	"smat/internal/analysis/framework/analysistest"
)

func TestAtomicOrder(t *testing.T) {
	analysistest.Run(t, Analyzer, "./testdata/src/ao")
}

// TestRealTreeClean runs the analyzer over the packages whose protocols it
// was written for: the annotated publish/barrier sites must verify clean.
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

	// The tuner's protocol surface is its two publishers and no
	// pre-publication exception: every engine is built whole by one function
	// (Tuner.build) before serve or the conversion worker stores it, and
	// nothing changes on a published engine, so nothing in the package writes
	// through a loaded snapshot.
	want := map[string]string{"serve": "smat:atomic-publish", "convertWorker": "smat:atomic-publish"}
	got := map[string]string{}
	for _, pkg := range pkgs {
		if pkg.ImportPath != "smat/internal/autotune" {
			continue
		}
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				for dir := range framework.FuncDirectives(fd) {
					if strings.HasPrefix(dir, "smat:atomic-") {
						got[fd.Name.Name] = dir
					}
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("autotune functions carrying atomic directives: %v, want %v", got, want)
	}
}
