// Package analysistest runs a framework.Analyzer over fixture packages under
// testdata/ and checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest without the dependency.
//
// A fixture is an ordinary compilable package (go list can name testdata
// directories explicitly even though ./... skips them). Expectations are
// written at the end of the offending line:
//
//	x := make([]int, 4) // want `allocates`
//
// The backquoted (or double-quoted) strings are regular expressions matched
// against the diagnostic message; every diagnostic must be matched by a want
// on its line, and every want must be matched by a diagnostic.
package analysistest

import (
	"regexp"
	"strings"
	"testing"

	"smat/internal/analysis/framework"
)

var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run loads the fixture package at dir (relative to the test's working
// directory), applies the analyzer, and reports mismatches through t.
func Run(t *testing.T, analyzer *framework.Analyzer, dir string) {
	t.Helper()
	pkgs, err := framework.LoadCached(framework.LoadConfig{Tests: true}, dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: loaded %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", dir, terr)
	}

	diags, err := framework.Run([]*framework.Analyzer{analyzer}, pkgs)
	if err != nil {
		t.Fatalf("running %s on %s: %v", analyzer.Name, dir, err)
	}

	type expectation struct {
		file string
		line int
		re   *regexp.Regexp
		raw  string
		hit  bool
	}
	var wants []*expectation
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "want ")
				if i < 0 || !strings.HasPrefix(strings.TrimLeft(strings.TrimPrefix(text, "//"), " "), "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[i+len("want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
