package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The loader type-checks the module's packages with nothing but the
// standard library: module-internal imports are resolved by walking the
// module tree recursively, everything else falls through to go/types'
// source importer, which compiles the standard library straight from
// GOROOT source. No go/packages, no network, no build cache — pvnlint
// must run in the same offline container the tests do.

// FindModuleRoot walks up from dir to the enclosing go.mod and returns
// the module root directory and module path.
func FindModuleRoot(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

type loader struct {
	root   string
	module string
	fset   *token.FileSet
	cache  map[string]*Package // by import path; nil entry = in progress
	stdlib types.ImporterFrom
}

// Load parses and type-checks the packages matched by patterns inside
// the module rooted at root. Patterns are directory-relative: "./..."
// (everything), "./sub/..." (a subtree) or "./sub" (one directory).
// testdata and hidden directories are never matched; _test.go files are
// never loaded — pvnlint analyzes shipped code, and test packages may
// deliberately violate contracts to prove the code under test enforces
// them.
func Load(root, module string, patterns ...string) ([]*Package, error) {
	l, err := newLoader(root, module)
	if err != nil {
		return nil, err
	}
	root = l.root

	var dirs []string
	seen := map[string]bool{}
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := walkGoDirs(root, addDir); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(root, strings.TrimSuffix(pat, "/..."))
			if err := walkGoDirs(base, addDir); err != nil {
				return nil, err
			}
		default:
			addDir(filepath.Join(root, pat))
		}
	}

	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.importPath(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// newLoader makes an empty loader for the module rooted at root.
func newLoader(root, module string) (*loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	// The source importer consults go/build's default context. Cgo off
	// keeps every stdlib package (net in particular) on its pure-Go
	// fallback so type-checking never needs a C toolchain.
	build.Default.CgoEnabled = false
	l := &loader{
		root:   root,
		module: module,
		fset:   token.NewFileSet(),
		cache:  map[string]*Package{},
	}
	l.stdlib = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// walkGoDirs calls add for every directory under base that contains at
// least one non-test .go file, skipping testdata and hidden trees.
func walkGoDirs(base string, add func(string)) error {
	return filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			add(filepath.Dir(p))
		}
		return nil
	})
}

func (l *loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// load parses + type-checks one module package (cached, cycle-checked).
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.cache[path] = nil // in progress

	dir := l.dirFor(path)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	if len(files) == 0 {
		delete(l.cache, path)
		return nil, nil
	}
	pkg, typeErrs := l.check(path, dir, files)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for i, e := range typeErrs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	l.cache[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test files of dir a plain `go build` would
// compile, sorted by name.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		// Build constraints as a plain `go build` sees them: of a
		// race/!race pair, only the !race file.
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files, parsed from dir, as the package at path,
// importing module packages through the loader, and returns every type
// error.
func (l *loader) check(path, dir string, files []*ast.File) (*Package, []error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	return &Package{
		Path:  path,
		Dir:   dir,
		Name:  files[0].Name.Name,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, typeErrs
}

// loaderImporter adapts the loader into go/types' ImporterFrom:
// module-internal paths load from source through the loader, everything
// else (the standard library) goes to the srcimporter.
type loaderImporter loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.stdlib.ImportFrom(path, dir, 0)
}
