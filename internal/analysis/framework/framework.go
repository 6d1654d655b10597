// Package framework is a self-contained analyzer harness modelled on
// golang.org/x/tools/go/analysis, built entirely on the standard library so
// the repository carries no external dependencies. It provides the Analyzer /
// Pass / Diagnostic vocabulary, a package loader that type-checks source
// against compiler export data (the same strategy as cmd/vet's unitchecker),
// and small AST helpers shared by the smat-lint analyzers.
//
// The analyzers built on it enforce the invariants of the steady-state SpMV
// engine that neither the type system, vet nor the tests can see: no slow
// calls on annotated hot paths, top-level kernel-table bodies, safe storage
// and 32-bit alignment of sync/atomic-bearing values, and the atomic publish
// protocols.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check: a name for diagnostics, a doc string,
// and the Run function applied to each loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and driver flags. It must
	// be a valid identifier.
	Name string
	// Doc is the analyzer's documentation, shown by the driver's -help.
	Doc string
	// Run applies the check to one package, reporting findings through the
	// Pass. Returning an error aborts the whole lint run (reserved for
	// internal failures, not findings).
	Run func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer.Run invocation.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: a position, the analyzer that produced it, and
// the message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the findings
// sorted by position. Analyzer errors (not findings) are returned as an
// error immediately.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// Preorder walks every file and calls fn for each node in depth-first
// preorder (the x/tools inspector idiom without the inspector).
func Preorder(files []*ast.File, fn func(ast.Node)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				fn(n)
			}
			return true
		})
	}
}

// FuncDirectives returns the directive set ("smat:hotpath", ...) present on
// a function declaration's doc comment.
func FuncDirectives(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	if fd.Doc == nil {
		return out
	}
	for _, c := range fd.Doc.List {
		text := c.Text
		if !strings.HasPrefix(text, "//") || strings.HasPrefix(text, "// ") {
			continue
		}
		rest := strings.TrimPrefix(text, "//")
		if i := strings.IndexByte(rest, ' '); i >= 0 {
			rest = rest[:i]
		}
		if strings.Contains(rest, ":") {
			out[rest] = true
		}
	}
	return out
}

// PkgNameOf resolves the package an identifier in a selector expression
// refers to, or "" when the expression is not a package-qualified selector.
func PkgNameOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
