// Package lint is pvnlint's engine: a stdlib-only static-analysis
// driver (go/parser + go/types, no external modules) that enforces the
// project contracts code review alone has already missed twice —
// netsim simulated-clock determinism, fail-closed security middleboxes,
// the Synchronized concurrency rules, and error discipline on the
// deploy lifecycle APIs.
//
// The model mirrors golang.org/x/tools/go/analysis in miniature: an
// Analyzer inspects one type-checked Package through a Pass and reports
// Diagnostics. The driver filters diagnostics through `//lint:allow`
// suppression comments so every deliberate exception carries an
// auditable reason in the source:
//
//	deadline := time.Now().Add(wait) //lint:allow nondet real socket deadline
//
// An annotation covers findings of the named check on its own line or
// on the line directly below it (comment-above style). The reason is
// mandatory; a bare `//lint:allow nondet` is itself a diagnostic, and so
// is an annotation naming a check that no registered analyzer runs.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Package is one type-checked package as the loader produced it.
type Package struct {
	// Path is the import path ("pvn/internal/netsim").
	Path string
	// Dir is the directory the files came from.
	Dir string
	// Name is the package name.
	Name string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by filename.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one named check. Per-package checks implement Run;
// whole-module checks (cross-package call graphs, the lock acquisition
// graph) implement RunModule instead and see every package at once.
type Analyzer struct {
	Name string
	// Doc is the one-line rule statement (pvnlint -list prints it).
	Doc string
	Run func(*Pass)
	// RunModule, if set, runs once over all loaded packages.
	RunModule func(*ModulePass)
}

// Pass carries one (analyzer, package) run and collects its findings.
type Pass struct {
	Check  string
	Config *Config
	Pkg    *Package
	diags  []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.Check,
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one module-level analyzer run over all packages.
type ModulePass struct {
	Check  string
	Config *Config
	Pkgs   []*Package
	diags  []Diagnostic
}

// Reportf records a finding positioned in pkg's file set.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Check:   p.Check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Config scopes the project-specific rules. The zero value disables the
// scoped analyzers; DefaultConfig returns the pvn repo contract.
type Config struct {
	// DeterministicPkgs are import paths where all time must flow from
	// the netsim clock and all randomness from a seeded RNG (check:
	// nondet).
	DeterministicPkgs map[string]bool
	// PerfClocks are project functions ("pkg/path.Func") that read the
	// wall clock for perf counters, each with the packages that may call
	// them; nondet reports a reference from any other deterministic
	// package, as it would the time.Now inside.
	PerfClocks map[string]map[string]bool
	// MiddleboxPkgs are import paths subject to failpolicy's panic rule
	// (panics belong to the supervisor, not to boxes).
	MiddleboxPkgs map[string]bool
	// SupervisorFiles are file basenames exempt from the panic rule —
	// the recover() side of the contract lives there.
	SupervisorFiles map[string]bool
	// ProjectPrefix is the module path; errdrop only polices methods
	// defined in packages under it.
	ProjectPrefix string
}

// DefaultConfig is the contract for this repository: the packages whose
// experiment tables, state machines and invoices must be bit-stable
// given a seed, per DESIGN.md §11.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: map[string]bool{
			"pvn/internal/experiments":   true,
			"pvn/internal/netsim":        true,
			"pvn/internal/discovery":     true,
			"pvn/internal/tunnel":        true,
			"pvn/internal/health":        true,
			"pvn/internal/middlebox":     true,
			"pvn/internal/middlebox/mbx": true,
			"pvn/internal/core":          true,
			"pvn/internal/deployserver":  true,
			"pvn/internal/dataplane":     true,
			"pvn/internal/openflow":      true,
			"pvn/internal/overlay":       true,
			"pvn/internal/scenario":      true,
			"pvn/internal/orchestrator":  true,
		},
		PerfClocks: map[string]map[string]bool{
			"pvn/internal/openflow.PerfStamp": {
				"pvn/internal/openflow":  true,
				"pvn/internal/dataplane": true,
			},
		},
		MiddleboxPkgs: map[string]bool{
			"pvn/internal/middlebox":     true,
			"pvn/internal/middlebox/mbx": true,
		},
		SupervisorFiles: map[string]bool{"supervisor.go": true},
		ProjectPrefix:   "pvn",
	}
}

// Analyzers returns every registered check, in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondetAnalyzer,
		FailPolicyAnalyzer,
		UnlockedFieldAnalyzer,
		ErrDropAnalyzer,
		LockOrderAnalyzer,
	}
}

// Run executes the analyzers over the packages, applies `//lint:allow`
// suppressions, and returns the surviving diagnostics sorted by
// position. Reasonless and stale annotations surface as "lint"
// diagnostics.
//
// Per-package passes run concurrently (one worker per CPU); module
// analyzers run concurrently with each other after the allow set is
// collected. Suppressions are filtered against the global set — keys
// are (file, line, check), so cross-package module findings suppress
// exactly like package ones.
func Run(cfg *Config, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	found, diags := scanAllows(pkgs)
	allows := allowSet{}
	for _, a := range found {
		allows[allowKey{a.Pos.Filename, a.Pos.Line, a.Check}] = true
	}

	var mu sync.Mutex
	keep := func(found []Diagnostic) {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range found {
			if !allows.covers(d) {
				diags = append(diags, d)
			}
		}
	}

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, pkg := range pkgs {
		wg.Add(1)
		go func(pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, a := range analyzers {
				if a.Run == nil {
					continue
				}
				pass := &Pass{Check: a.Name, Config: cfg, Pkg: pkg}
				a.Run(pass)
				keep(pass.diags)
			}
		}(pkg)
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		wg.Add(1)
		go func(a *Analyzer) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			mp := &ModulePass{Check: a.Name, Config: cfg, Pkgs: pkgs}
			a.RunModule(mp)
			keep(mp.diags)
		}(a)
	}
	wg.Wait()

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// allowKey identifies one suppressed (file, line, check).
type allowKey struct {
	file  string
	line  int
	check string
}

type allowSet map[allowKey]bool

// covers reports whether d is suppressed by an annotation on its own
// line or the line above it.
func (s allowSet) covers(d Diagnostic) bool {
	return s[allowKey{d.Pos.Filename, d.Pos.Line, d.Check}] ||
		s[allowKey{d.Pos.Filename, d.Pos.Line - 1, d.Check}]
}

var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+(\S+)(\s+(.*))?$`)

// Allow is one well-formed //lint:allow annotation: the check it
// suppresses and the reason it gives.
type Allow struct {
	Pos    token.Position
	Check  string
	Reason string
}

// scanAllows is the one walk over //lint:allow annotations. One with a
// reason that names a registered check comes back as an Allow. One with
// no reason, or naming no registered check, suppresses nothing and comes
// back as a "lint" diagnostic instead: an unexplained or stale
// suppression is exactly the review drift the linter exists to stop.
func scanAllows(pkgs []*Package) ([]Allow, []Diagnostic) {
	registered := map[string]bool{}
	for _, a := range Analyzers() {
		registered[a.Name] = true
	}
	var allows []Allow
	var bad []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					check, reason := m[1], strings.TrimSpace(m[3])
					switch {
					case reason == "":
						bad = append(bad, Diagnostic{pos, "lint",
							fmt.Sprintf("//lint:allow %s has no reason; write //lint:allow %s <why>", check, check)})
					case !registered[check]:
						bad = append(bad, Diagnostic{pos, "lint",
							fmt.Sprintf("//lint:allow %s names no registered check (pvnlint -list), so it suppresses nothing", check)})
					default:
						allows = append(allows, Allow{pos, check, reason})
					}
				}
			}
		}
	}
	return allows, bad
}

// CollectAllows returns the annotations that suppress findings, sorted
// by position, so suppressions stay reviewable (`make lint-fix-audit`).
func CollectAllows(pkgs []*Package) []Allow {
	out, _ := scanAllows(pkgs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}
