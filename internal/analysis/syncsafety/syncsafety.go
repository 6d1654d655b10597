// Package syncsafety implements the smat-lint analyzer for the one
// sync/atomic hazard no other gate sees: raw int64/uint64 struct fields
// passed to sync/atomic functions while not 8-byte aligned under 32-bit
// layout rules. Such a call faults on 386/ARM, and no test runs the engine
// there; move the field to the front of the struct or use atomic.Int64,
// which carries its own alignment. Copies of sync-bearing values are vet's
// copylocks.
package syncsafety

import (
	"go/ast"
	"go/types"
	"strings"

	"smat/internal/analysis/framework"
)

// Analyzer is the syncsafety analyzer.
var Analyzer = &framework.Analyzer{
	Name: "syncsafety",
	Doc:  "report raw 64-bit atomics on fields misaligned under 32-bit layout rules",
	Run:  run,
}

func run(pass *framework.Pass) error {
	framework.Preorder(pass.Files, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			checkAtomic64(pass, call)
		}
	})
	return nil
}

// atomic64Funcs maps sync/atomic functions operating on raw 64-bit cells.
var atomic64Funcs = map[string]bool{
	"AddInt64": true, "AddUint64": true,
	"LoadInt64": true, "LoadUint64": true,
	"StoreInt64": true, "StoreUint64": true,
	"SwapInt64": true, "SwapUint64": true,
	"CompareAndSwapInt64": true, "CompareAndSwapUint64": true,
}

// checkAtomic64 reports a raw 64-bit atomic on a field that is not 8-byte
// aligned under 32-bit layout rules.
func checkAtomic64(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || framework.PkgNameOf(pass.Info, sel) != "sync/atomic" || !atomic64Funcs[sel.Sel.Name] || len(call.Args) == 0 {
		return
	}
	addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok {
		return
	}
	fieldSel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[fieldSel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	off, path, ok := offset32(selection)
	if !ok {
		return
	}
	if off%8 != 0 {
		wrapper := "Int64"
		if strings.HasSuffix(sel.Sel.Name, "Uint64") {
			wrapper = "Uint64"
		}
		pass.Reportf(call.Pos(),
			"atomic %s on field %s at 32-bit offset %d: not 8-byte aligned on 386/ARM — move the field first or use atomic.%s",
			sel.Sel.Name, path, off, wrapper)
	}
}

// offset32 computes the byte offset of the selected field under 32-bit (386)
// layout, following the selection's embedded-field index path.
func offset32(sel *types.Selection) (int64, string, bool) {
	sizes := types.SizesFor("gc", "386")
	t := sel.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	var off int64
	var pathParts []string
	for _, idx := range sel.Index() {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return 0, "", false
		}
		fields := make([]*types.Var, st.NumFields())
		for i := range fields {
			fields[i] = st.Field(i)
		}
		offsets := sizes.Offsetsof(fields)
		off += offsets[idx]
		pathParts = append(pathParts, st.Field(idx).Name())
		t = st.Field(idx).Type()
	}
	return off, strings.Join(pathParts, "."), true
}
