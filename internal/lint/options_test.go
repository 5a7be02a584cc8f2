package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// optionAllow lists the option fields that no caller outside their
// package sets but that stay options on purpose, each with its reason.
var optionAllow = map[string]string{
	"pvn/internal/dataplane.Config.BatchSize":  "packet-path knob; the batching and shard measurements decide it",
	"pvn/internal/dataplane.Config.QueueDepth": "packet-path knob; the backpressure measurements decide it",
	"pvn/internal/dataplane.Config.Tunnels":    "packet-path wiring for tunnel actions; the pipeline tests drive it",
	"pvn/internal/overlay.Config.Replicate":    "the DHT tests replicate to every node, and bench names overlay.Config",
	"pvn/internal/health.Config.Degraded":      "the ladder's internal parameter block, which its unit tests script",
	"pvn/internal/pki.IssueOptions.IsCA":       "certificate content, not a tuning option",
}

// optionSkip names packages whose option types are exempt: experiment
// parameters the tables print, the scenario engine's knobs and the
// linter's own configuration.
var optionSkip = map[string]bool{"pvn/internal/experiments": true, "pvn/internal/lint": true, "pvn/internal/scenario": true}

// isOptionType reports whether a named struct is an options block by
// its name: *Config, *Params or *Options.
func isOptionType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Params") || strings.HasSuffix(name, "Options")
}

// optionFields returns every exported field of an exported options
// struct declared in pkgs, keyed "pkg.Type.Field". Func-typed fields are
// hooks a caller wires, not settings, and are left out.
func optionFields(pkgs []*Package) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, p := range pkgs {
		if optionSkip[p.Path] {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !isOptionType(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if _, hook := f.Type().Underlying().(*types.Signature); f.Exported() && !hook {
					out[f] = p.Path + "." + name + "." + f.Name()
				}
			}
		}
	}
	return out
}

// optionWrites marks every field in fields that a package other than
// its own writes, through a composite-literal key or an assignment.
func optionWrites(pkgs []*Package, fields map[*types.Var]string) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	mark := func(p *Package, id *ast.Ident) {
		if f, ok := p.Info.Uses[id].(*types.Var); ok && fields[f] != "" && f.Pkg() != p.Types {
			set[f] = true
		}
	}
	lhs := func(p *Package, e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			mark(p, sel.Sel)
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						mark(p, id)
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, e := range n.Lhs {
							lhs(p, e)
						}
					}
				case *ast.IncDecStmt:
					lhs(p, n.X)
				}
				return true
			})
		}
	}
	return set
}

// TestOptionsHaveCallers fails for each exported field of an exported
// *Config, *Params or *Options struct that no non-test code outside
// its package sets: an option every product caller leaves at its
// default is a constant, and the tests that vary it cover a
// configuration nothing runs. Keep such a field only with a reason in
// optionAllow.
func TestOptionsHaveCallers(t *testing.T) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, module, "./...")
	if err != nil {
		t.Fatal(err)
	}
	fields := optionFields(pkgs)
	set := optionWrites(pkgs, fields)
	var unset []string
	allowed := map[string]bool{}
	for f, name := range fields {
		switch {
		case set[f]:
		case optionAllow[name] != "":
			allowed[name] = true
		default:
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("option %s is set by no caller outside its package: make it a constant, or allow it with a reason", name)
	}
	for name := range optionAllow {
		if !allowed[name] {
			t.Errorf("optionAllow lists %s, which is not an unset option field; drop the entry", name)
		}
	}
	if len(fields) < 50 {
		t.Fatalf("only %d option fields found; the census is missing the tree", len(fields))
	}
}
