package lint

import (
	"go/ast"
)

// ErrDropAnalyzer (check "errdrop") flags lifecycle API calls whose
// error result is silently discarded. Process, Deploy, Teardown and
// Export/ImportState are exactly the calls whose failures carry policy
// weight in this system — a dropped Teardown error leaks a meter, a
// dropped ImportState error silently forgets migrated middlebox state —
// so a bare statement call to any of them is treated as a bug. Writing
// `_ = x.Teardown()` (or `_, _, _ = …`) is the explicit opt-out and is
// not flagged: the blank assignment is the author saying "I considered
// this" in a way a reviewer can see.
var ErrDropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "ignored error return from a project lifecycle API (Process, Deploy, Teardown, ExportState, ImportState)",
	Run:  runErrDrop,
}

var lifecycleAPIs = map[string]bool{
	"Process": true, "Deploy": true, "Teardown": true,
	"ExportState": true, "ImportState": true,
}

func runErrDrop(pass *Pass) {
	check := func(call *ast.CallExpr, how string) {
		fn := calleeOf(pass.Pkg.Info, call)
		if fn == nil || !lifecycleAPIs[fn.Name()] || !returnsError(fn) || !inProject(pass.Config, fn) {
			return
		}
		pass.Reportf(call.Pos(), "%s's error result is dropped%s; handle it or assign to _ explicitly", fn.Name(), how)
	}
	pass.inspect(func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				check(call, "")
			}
		case *ast.GoStmt:
			check(st.Call, " in a go statement")
		case *ast.DeferStmt:
			check(st.Call, " in a defer")
		}
		return true
	})
}
