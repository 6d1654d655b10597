// Package compilediag is the shared substrate of smat-lint's
// compiler-feedback gates (escapes, bce, inlinegate): it runs `go build`
// with diagnostic gcflags, memoizes the output per (module, flags) so
// concurrent gates sharing a flag set pay for one compile, parses the
// file:line:col diagnostic stream, normalizes generic shape names, locates
// annotated hot bodies, and reads/writes/diffs baseline files.
//
// Memoization matters for more than speed: the escapes and bce gates
// deliberately request the *same* build (-m=1 plus the check_bce debug flag)
// so one compiler invocation feeds both, while inlinegate needs -m=2 — whose
// extra inlining changes the escape-diagnostic set, which is why the two
// builds cannot be merged into one.
package compilediag

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"smat/internal/analysis/framework"
)

// EscapesAndBCEFlags is the gcflags set shared by the escapes and bce gates:
// -m=1 emits escape decisions, the check_bce debug flag emits one "Found
// Is(Slice)InBounds" line per surviving bounds check, and the two streams
// interleave harmlessly on stderr.
const EscapesAndBCEFlags = "-m=1 -d=ssa/check_bce/debug=1"

// InlineFlags is the gcflags set for the inlining gate. -m=2 includes
// inlining costs and cannot-inline reasons; it is NOT shared with the
// escapes build because deeper inlining exposes additional escape sites.
const InlineFlags = "-m=2"

// buildCache memoizes compiler output per (absolute module dir, scope,
// flags, patterns).
var buildCache = struct {
	sync.Mutex
	m map[string]*buildEntry
}{m: map[string]*buildEntry{}}

type buildEntry struct {
	once sync.Once
	out  string
	err  error
}

// Build compiles the module with `-gcflags=scope=flags` and returns the
// compiler's stderr. Output is memoized for the life of the process, so the
// escapes and bce gates running concurrently with identical flags trigger a
// single build. The go build cache replays diagnostics for unchanged
// packages, so even cold calls are cheap after the first CI compile.
func Build(moduleDir, scope, flags string, patterns ...string) (string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		abs = moduleDir
	}
	key := abs + "\x01" + scope + "\x01" + flags + "\x01" + strings.Join(patterns, "\x00")
	buildCache.Lock()
	e, ok := buildCache.m[key]
	if !ok {
		e = &buildEntry{}
		buildCache.m[key] = e
	}
	buildCache.Unlock()
	e.once.Do(func() {
		args := append([]string{"build", "-gcflags=" + scope + "=" + flags}, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Dir = moduleDir
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			e.err = fmt.Errorf("go build %s failed: %v\n%s", flags, err, tail(stderr.String(), 2048))
			return
		}
		e.out = stderr.String()
	})
	return e.out, e.err
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n:]
}

// Diag is one parsed compiler diagnostic line.
type Diag struct {
	File      string // cleaned, slash-separated, module-relative path
	Line, Col int
	Msg       string
}

var (
	diagRE  = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (.*)$`)
	shapeRE = regexp.MustCompile(`go\.shape\.[A-Za-z0-9_]+`)
)

// Parse extracts file:line:col diagnostics from compiler output, skipping
// "# package" header lines and anything else that doesn't match.
func Parse(out string) []Diag {
	var diags []Diag
	for _, line := range strings.Split(out, "\n") {
		m := diagRE.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, Diag{
			File: filepath.ToSlash(filepath.Clean(m[1])),
			Line: lineNo,
			Col:  col,
			Msg:  m[4],
		})
	}
	return diags
}

// NormalizeShapes rewrites generic shape names (go.shape.float64,
// go.shape.uint32 …) to the stable go.shape.T so baseline entries are
// identical across instantiations.
func NormalizeShapes(s string) string {
	return shapeRE.ReplaceAllString(s, "go.shape.T")
}

// FuncSpan is one function-shaped region of source: a top-level declaration,
// or a closure returned by a //smat:hotpath-factory function (named
// "factory.func" like the compiler's funcval naming).
type FuncSpan struct {
	File       string // module-relative, slash-separated
	Start, End int    // line range, inclusive
	Name       string // bare declaration name (baseline keys; stable across receiver refactors)
	Qualified  string // receiver-qualified name matching -m output, e.g. "(*poolState).run"
	Directives map[string]bool
}

// Contains reports whether the diagnostic lands inside the span.
func (s FuncSpan) Contains(d Diag) bool {
	return d.File == s.File && d.Line >= s.Start && d.Line <= s.End
}

// Funcs parses every non-test .go file in the given module-relative
// directories (syntax only) and returns all top-level function spans plus
// factory-returned closure spans. Directives come from the declaration's doc
// comment; closure spans inherit {"smat:hotpath": true} when their factory
// carries smat:hotpath-factory.
func Funcs(moduleDir string, dirs []string) ([]FuncSpan, error) {
	var spans []FuncSpan
	fset := token.NewFileSet()
	for _, dir := range dirs {
		matches, err := filepath.Glob(filepath.Join(moduleDir, dir, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, path := range matches {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", path, err)
			}
			rel := filepath.ToSlash(filepath.Join(dir, filepath.Base(path)))
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				dirs := framework.FuncDirectives(fd)
				qual := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					qual = recvName(fd.Recv.List[0].Type) + "." + qual
				}
				spans = append(spans, FuncSpan{
					File:       rel,
					Start:      fset.Position(fd.Pos()).Line,
					End:        fset.Position(fd.End()).Line,
					Name:       fd.Name.Name,
					Qualified:  qual,
					Directives: dirs,
				})
				if dirs["smat:hotpath-factory"] {
					spans = append(spans, factoryClosures(fset, rel, fd)...)
				}
			}
		}
	}
	return spans, nil
}

// recvName renders a method receiver type for span naming: *poolState →
// (*poolState), Operator[T] → Operator.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(e.X) + ")"
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// factoryClosures finds the closures a hotpath factory returns; those bodies
// are the actual hot code the registry dispatches.
func factoryClosures(fset *token.FileSet, rel string, fd *ast.FuncDecl) []FuncSpan {
	var spans []FuncSpan
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			_, isLit := n.(*ast.FuncLit)
			return !isLit
		}
		for _, res := range ret.Results {
			if lit, ok := res.(*ast.FuncLit); ok {
				spans = append(spans, FuncSpan{
					File:       rel,
					Start:      fset.Position(lit.Pos()).Line,
					End:        fset.Position(lit.End()).Line,
					Name:       fd.Name.Name + ".func",
					Qualified:  fd.Name.Name + ".func",
					Directives: map[string]bool{"smat:hotpath": true},
				})
			}
		}
		return true
	})
	return spans
}

// HotSpans filters Funcs output down to //smat:hotpath bodies (including
// factory closures).
func HotSpans(spans []FuncSpan) []FuncSpan {
	var hot []FuncSpan
	for _, s := range spans {
		if s.Directives["smat:hotpath"] {
			hot = append(hot, s)
		}
	}
	return hot
}

// Attribute finds the innermost span containing the diagnostic ("" when
// none). Innermost matters: a factory closure span nests inside its
// enclosing declaration's span.
func Attribute(spans []FuncSpan, d Diag) (FuncSpan, bool) {
	best := -1
	for i, s := range spans {
		if !s.Contains(d) {
			continue
		}
		if best < 0 || s.End-s.Start < spans[best].End-spans[best].Start {
			best = i
		}
	}
	if best < 0 {
		return FuncSpan{}, false
	}
	return spans[best], true
}

// ReadBaseline loads baseline entries; '#' lines are comments and a missing
// file is an empty baseline.
func ReadBaseline(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries = append(entries, line)
	}
	return entries, nil
}

// WriteBaseline writes header comment lines (without the leading '#') and
// sorted entries.
func WriteBaseline(path string, header []string, entries []string) error {
	var b strings.Builder
	for _, h := range header {
		b.WriteString("# ")
		b.WriteString(h)
		b.WriteByte('\n')
	}
	sorted := append([]string{}, entries...)
	sort.Strings(sorted)
	for _, e := range sorted {
		b.WriteString(e)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// ReadBaselineRaw loads a policy/baseline file verbatim (comments intact);
// a missing file reads as empty.
func ReadBaselineRaw(path string) (string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// WriteRaw writes a policy/baseline file verbatim.
func WriteRaw(path, data string) error {
	if !strings.HasSuffix(data, "\n") {
		data += "\n"
	}
	return os.WriteFile(path, []byte(data), 0o644)
}

// Diff splits current entries into fresh (absent from the baseline —
// regressions) and stale (baselined but no longer produced — cleanups worth
// re-baselining, never failures).
func Diff(current, baseline []string) (fresh, stale []string) {
	base := map[string]bool{}
	for _, e := range baseline {
		base[e] = true
	}
	cur := map[string]bool{}
	for _, e := range current {
		cur[e] = true
		if !base[e] {
			fresh = append(fresh, e)
		}
	}
	for _, e := range baseline {
		if !cur[e] {
			stale = append(stale, e)
		}
	}
	return fresh, stale
}
