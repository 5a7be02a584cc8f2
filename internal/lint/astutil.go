package lint

import (
	"go/ast"
	"go/types"
)

// inspect walks every file in the package.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// pkgRef resolves sel as a reference to a package-level object: if
// sel.X is a package qualifier it returns the imported package's path,
// the selected name and the object; otherwise ok is false.
func (p *Pass) pkgRef(sel *ast.SelectorExpr) (path, name string, obj types.Object, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", nil, false
	}
	pn, isPkg := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", nil, false
	}
	return pn.Imported().Path(), sel.Sel.Name, p.Pkg.Info.Uses[sel.Sel], true
}

// fieldOf resolves sel as a struct-field selection and returns the
// field variable, or nil.
func (p *Pass) fieldOf(sel *ast.SelectorExpr) *types.Var {
	s, ok := p.Pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// returnsError reports whether fn's last result is the error type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// inProject reports whether obj is defined in a package owned by the
// module (cfg.ProjectPrefix).
func inProject(cfg *Config, obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil || cfg.ProjectPrefix == "" {
		return false
	}
	path := obj.Pkg().Path()
	return path == cfg.ProjectPrefix || len(path) > len(cfg.ProjectPrefix) &&
		path[:len(cfg.ProjectPrefix)+1] == cfg.ProjectPrefix+"/"
}

// calleeOf resolves a call's static target to its types.Func (methods
// and package-level functions alike), or nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			f, _ := s.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	}
	return nil
}

// fieldOwner finds the named type declaring f, as "Type." (best
// effort: scans the package scope).
func fieldOwner(f *types.Var) string {
	scope := f.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return name + "."
			}
		}
	}
	return ""
}
