package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fuzzTarget is one func Fuzz* in the tree: the package directory it
// lives in (relative to the module root) and what its body calls, as
// "import/path.Func" or, for method calls, ".Method".
type fuzzTarget struct {
	dir, name string
	calls     map[string]bool
}

// fuzzTargets parses every _test.go file under root and returns its
// fuzz targets.
func fuzzTargets(t *testing.T, root, module string) []fuzzTarget {
	t.Helper()
	var out []fuzzTarget
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
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		dir = filepath.ToSlash(dir)
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") || fn.Body == nil {
				continue
			}
			ft := fuzzTarget{dir: dir, name: fn.Name.Name, calls: map[string]bool{}}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					ft.calls[module+"/"+dir+"."+fun.Name] = true
				case *ast.SelectorExpr:
					if x, ok := fun.X.(*ast.Ident); ok && imports[x.Name] != "" {
						ft.calls[imports[x.Name]+"."+fun.Sel.Name] = true
					} else {
						ft.calls["."+fun.Sel.Name] = true
					}
				}
				return true
			})
			out = append(out, ft)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fuzzShortRe matches one `go test -fuzz='^FuzzX$$' ... ./dir/` line of
// the Makefile's fuzz-short recipe.
var fuzzShortRe = regexp.MustCompile(`-fuzz='\^(Fuzz\w+)\$\$'.*\s\./(\S*?)/?$`)

// fuzzShort returns the "dir:FuzzX" targets `make fuzz-short` runs.
func fuzzShort(t *testing.T, root string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "fuzz-short:"):
			in = true
		case in && !strings.HasPrefix(line, "\t"):
			in = false
		case in:
			m := fuzzShortRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("fuzz-short recipe line not understood: %q", line)
			}
			out = append(out, m[2]+":"+m[1])
		}
	}
	return out
}

// wireParsers are the functions that turn bytes from the wire, an
// overlay replica or a provider into values: each must have a fuzz
// target that calls it.
var wireParsers = []string{
	"pvn/internal/overlay.DecodeEnvelope",
	"pvn/internal/store.DecodeModule",
	"pvn/internal/pvnc.Parse",
	"pvn/internal/pki.DecodeCertificate",
	"pvn/internal/pki.DecodeChain",
}

// TestFuzzListInSync fails when `make fuzz-short` and the tree drift
// apart: a fuzz target the recipe does not run, a recipe line naming a
// target that does not exist, or a wire parser that no fuzz target
// calls.
func TestFuzzListInSync(t *testing.T) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	targets := fuzzTargets(t, root, module)
	inTree := map[string]bool{}
	for _, ft := range targets {
		inTree[ft.dir+":"+ft.name] = true
	}
	listed := map[string]bool{}
	for _, k := range fuzzShort(t, root) {
		if listed[k] {
			t.Errorf("make fuzz-short runs %s twice", k)
		}
		listed[k] = true
		if !inTree[k] {
			t.Errorf("make fuzz-short runs %s, which is not a fuzz target in the tree", k)
		}
	}
	var missing []string
	for k := range inTree {
		if !listed[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	for _, k := range missing {
		t.Errorf("fuzz target %s is not in make fuzz-short", k)
	}
	if len(inTree) == 0 {
		t.Fatal("no fuzz targets found; the walk is missing the tree")
	}

	for _, parser := range wireParsers {
		fuzzed := false
		for _, ft := range targets {
			fuzzed = fuzzed || ft.calls[parser]
		}
		if !fuzzed {
			t.Errorf("wire parser %s is called by no fuzz target", parser)
		}
	}
}
