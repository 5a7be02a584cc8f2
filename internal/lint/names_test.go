package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// nameAllow lists the functions, methods and types that no product path
// reaches and no other package's tests reference, but that stay on
// purpose. Each reason names the open ROADMAP item that will call it.
var nameAllow = map[string]string{
	"pvn/internal/auditor.Ledger.OpenDispute":   reasonDisputes,
	"pvn/internal/auditor.PrivacyExposureCheck": reasonDisputes,
	"pvn/internal/billing.Ledger":               reasonDisputes,
	"pvn/internal/billing.NewLedger":            reasonDisputes,
	"pvn/internal/billing.Ledger.Credit":        reasonDisputes,
	"pvn/internal/billing.Ledger.Settle":        reasonDisputes,
	"pvn/internal/billing.Ledger.Balance":       reasonDisputes,
	"pvn/internal/billing.ApplyDispute":         reasonDisputes,

	"pvn/internal/orchestrator.Cluster.RestoreHost": reasonStorm,
	"pvn/internal/orchestrator.Cluster.RetryParked": reasonStorm,
	"pvn/internal/scenario.Engine.AttachCluster":    reasonStorm,

	"pvn/internal/middlebox.Runtime.AlertsDropped": "the alert ring's overflow counter, for the debug endpoint of ROADMAP item 4 to report",
}

const (
	reasonDisputes = "billing disputes (paper §3.1/§3.3), for the signed usage record of ROADMAP item 16 to wire"
	reasonStorm    = "for the scenario storm of ROADMAP item 6(c) to drive through the orchestrator"
)

// allowNamesItem matches the open ROADMAP item an allow reason must name.
var allowNamesItem = regexp.MustCompile(`item \d+`)

// dynamicMethods are the methods the standard library finds on an
// `any` by type assertion (fmt, encoding/json, errors): a reached type
// that has one is called through it.
var dynamicMethods = []string{"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"}

// nameCensus is reachability over one module's non-test code.
type nameCensus struct {
	decls   map[types.Object]*declSite
	methods map[*types.TypeName][]*types.Func
	reached map[types.Object]bool
	work    []types.Object
	ifaces  map[string]bool // method names of the interfaces the code uses
	tested  map[*types.Func]bool
	seen    map[types.Type]bool
}

type declSite struct {
	pkg  *Package
	node ast.Node // *ast.FuncDecl or *ast.TypeSpec
	name string   // "pkg.Func", "pkg.Type" or "pkg.Type.Method"
}

// recvType returns the named type a method is declared on.
func recvType(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func newNameCensus(pkgs []*Package) *nameCensus {
	c := &nameCensus{
		decls:   map[types.Object]*declSite{},
		methods: map[*types.TypeName][]*types.Func{},
		reached: map[types.Object]bool{},
		ifaces:  map[string]bool{},
		tested:  map[*types.Func]bool{},
		seen:    map[types.Type]bool{},
	}
	for _, m := range dynamicMethods {
		c.ifaces[m] = true
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.Info.Defs[d.Name].(*types.Func)
					name := p.Path + "." + d.Name.Name
					if d.Recv != nil {
						tn := recvType(fn)
						c.methods[tn] = append(c.methods[tn], fn)
						name = p.Path + "." + tn.Name() + "." + d.Name.Name
					}
					c.decls[fn] = &declSite{p, d, name}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							c.decls[p.Info.Defs[ts.Name]] = &declSite{p, ts, p.Path + "." + ts.Name.Name}
						}
					}
				}
			}
		}
	}
	return c
}

// reach marks a module-level function, method or type as reached.
func (c *nameCensus) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok {
			obj = n.Origin().Obj()
		}
	}
	if c.decls[obj] != nil && !c.reached[obj] {
		c.reached[obj] = true
		c.work = append(c.work, obj)
	}
}

// useType reaches the named types t is built from and records the
// method names of every interface it mentions. Named module types stop
// the walk: their declaration is walked once they are reached.
func (c *nameCensus) useType(t types.Type) {
	if t == nil || c.seen[t] {
		return
	}
	c.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		c.reach(t.Obj())
		if it, ok := t.Underlying().(*types.Interface); ok {
			c.useType(it)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			c.useType(t.TypeArgs().At(i))
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			c.ifaces[t.Method(i).Name()] = true
		}
	case *types.Pointer:
		c.useType(t.Elem())
	case *types.Slice:
		c.useType(t.Elem())
	case *types.Array:
		c.useType(t.Elem())
	case *types.Chan:
		c.useType(t.Elem())
	case *types.Map:
		c.useType(t.Key())
		c.useType(t.Elem())
	case *types.Signature:
		c.useType(t.Params())
		c.useType(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			c.useType(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			c.useType(t.Field(i).Type())
		}
	case *types.TypeParam:
		c.useType(t.Constraint())
	}
}

// walk reaches everything code under n refers to.
func (c *nameCensus) walk(p *Package, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				c.ifaces[fn.Name()] = true
			}
		}
		c.reach(obj)
		c.useType(obj.Type())
		return true
	})
}

// run drains the worklist, then reaches every method of a reached type
// whose name an interface in use has, or that another package's tests
// call, until nothing changes.
func (c *nameCensus) run() {
	for {
		for len(c.work) > 0 {
			obj := c.work[len(c.work)-1]
			c.work = c.work[:len(c.work)-1]
			d := c.decls[obj]
			c.walk(d.pkg, d.node)
			if tn, ok := obj.(*types.TypeName); ok {
				c.useType(tn.Type())
			}
		}
		for obj := range c.reached {
			if tn, ok := obj.(*types.TypeName); ok {
				for _, m := range c.methods[tn] {
					if c.ifaces[m.Name()] || c.tested[m] {
						c.reach(m)
					}
				}
			}
		}
		if len(c.work) == 0 {
			return
		}
	}
}

// testRefs parses every _test.go file under root and returns, per
// directory, the module names its tests refer to syntactically:
// "pkg/path.Name" for a qualified identifier and ".Name" for any other
// selector (a method or field of some value), together with the module
// packages each directory's tests import.
func testRefs(t *testing.T, root, module string) map[string]map[string]bool {
	t.Helper()
	refs := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		dir := module
		if rel != "." {
			dir = module + "/" + filepath.ToSlash(rel)
		}
		if refs[dir] == nil {
			refs[dir] = map[string]bool{}
		}
		local := map[string]string{} // import name -> path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			local[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
					// A qualified name; other modules' names are not ours.
					refs[dir][local[x.Name]+"."+sel.Sel.Name] = true
				} else {
					refs[dir]["."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestNamesHaveCallers fails for each function, method and type that
// no product path reaches and no other package's tests reference: code
// that only its own unit tests keep alive is dead, and those tests
// cover behaviour nothing runs. It fails too for a package that only
// its own tests use. Keep such a name only with a reason in nameAllow.
//
// Product paths start at every main and init function and every
// package-level var initializer, bench's included. A method is reached
// when its type is and some interface the code uses, or the standard
// library's dynamic dispatch, has a method of that name. A test in
// another directory keeps a name it refers to syntactically: a
// qualified pkg.Name, or any .Name selector for a method of that name.
// bench is a root but is not itself audited.
func TestNamesHaveCallers(t *testing.T) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, module, "./...")
	if err != nil {
		t.Fatal(err)
	}
	refs := testRefs(t, root, module)
	skip := map[string]bool{module + "/bench": true}

	c := newNameCensus(pkgs)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Name == "main") {
						c.reach(p.Info.Defs[d.Name])
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						c.walk(p, d)
					}
				}
			}
		}
	}
	// A qualified test reference is a root; a method a test selects by
	// name counts once its type is reached.
	for obj, d := range c.decls {
		for dir, r := range refs {
			if dir == d.pkg.Path {
				continue
			}
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				c.tested[fn] = c.tested[fn] || r["."+fn.Name()]
			} else if r[d.pkg.Path+"."+obj.Name()] {
				c.reach(obj)
			}
		}
	}
	c.run()
	// An allowed name is a root of its own, so what only it calls is
	// not reported; an allowed name the product already reaches is a
	// stale entry.
	byName := map[string]types.Object{}
	for obj, d := range c.decls {
		byName[d.name] = obj
	}
	var stale []string
	for name, reason := range nameAllow {
		if !allowNamesItem.MatchString(reason) {
			t.Errorf("nameAllow reason for %s names no open ROADMAP item (\"item N\"): %q", name, reason)
		}
		switch obj := byName[name]; {
		case obj == nil:
			stale = append(stale, name+", which is not declared in the tree")
		case c.reached[obj]:
			stale = append(stale, name+", which has a caller")
		default:
			c.reach(obj)
		}
	}
	c.run()

	// A package no product code imports and none of whose names is
	// reached exists for tests alone: it is reported once, as a package.
	imported, live := map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		for _, im := range p.Types.Imports() {
			imported[im.Path()] = true
		}
	}
	for obj := range c.reached {
		live[obj.Pkg().Path()] = true
	}
	declared := map[string]bool{}
	for _, d := range c.decls {
		declared[d.pkg.Path] = true
	}
	testOnly := map[string]bool{}
	for _, p := range pkgs {
		if p.Name != "main" && declared[p.Path] && !imported[p.Path] && !live[p.Path] {
			testOnly[p.Path] = true
			t.Errorf("package %s is used only by its own tests: move it into them", p.Path)
		}
	}
	var dead []string
	for obj, d := range c.decls {
		if !c.reached[obj] && !skip[d.pkg.Path] && !testOnly[d.pkg.Path] && obj.Name() != "_" {
			dead = append(dead, d.name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is reached by no product path and no other package's tests: delete it, or allow it with a reason", name)
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("nameAllow lists %s; drop the entry", s)
	}
	if len(c.decls) < 1000 {
		t.Fatalf("only %d declarations found; the census is missing the tree", len(c.decls))
	}
}
