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
// mandatory; a bare `//lint:allow nondet` is itself a diagnostic.
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

	fnOnce sync.Once
	fns    map[*types.Func]*FuncDecl
	diags  []Diagnostic
}

// FuncDecl pairs a declared function with the package it lives in —
// the module-wide function index for cross-package analyzers.
type FuncDecl struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// Fset returns the FileSet shared by all loaded packages.
func (p *ModulePass) Fset() *token.FileSet {
	if len(p.Pkgs) == 0 {
		return token.NewFileSet()
	}
	return p.Pkgs[0].Fset
}

// Funcs lazily builds the module-wide function index. The loader
// shares one type universe across a Load call, so *types.Func identity
// holds across packages.
func (p *ModulePass) Funcs() map[*types.Func]*FuncDecl {
	p.fnOnce.Do(func() {
		p.fns = map[*types.Func]*FuncDecl{}
		for _, pkg := range p.Pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						p.fns[fn] = &FuncDecl{Pkg: pkg, Decl: fd}
					}
				}
			}
		}
	})
	return p.fns
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
	// the netsim clock and all randomness from a seeded RNG (checks:
	// nondet, clockparam).
	DeterministicPkgs map[string]bool
	// MiddleboxPkgs are import paths subject to failpolicy's panic rule
	// (panics belong to the supervisor, not to boxes).
	MiddleboxPkgs map[string]bool
	// SupervisorFiles are file basenames exempt from the panic rule —
	// the recover() side of the contract lives there.
	SupervisorFiles map[string]bool
	// ProjectPrefix is the module path; errdrop only polices methods
	// defined in packages under it.
	ProjectPrefix string

	// TaintPkgs are import paths analyzed by trustflow — the packages
	// that handle data from the wire, overlay replicas or providers.
	TaintPkgs map[string]bool
	// TaintSources are fully qualified functions ("pkg/path.Func" or
	// "pkg/path.Type.Method") whose results are untrusted.
	TaintSources map[string]bool
	// TaintFieldSources are struct fields ("pkg/path.Type.Field")
	// whose reads yield untrusted data (e.g. netsim message payloads).
	TaintFieldSources map[string]bool
	// TaintSinks are functions that must never receive tainted
	// arguments: deploy, install, rule-table mutation, compiles.
	TaintSinks map[string]bool
	// WireTypes are named types presumed tainted when they arrive as
	// parameters of exported functions or function literals.
	WireTypes map[string]bool
	// SanitizerPattern matches project function names that vouch for
	// their receiver/arguments (default `(?i)^(verify|valid)`, which
	// covers Verify*, Validate*, and the unexported valid/validate
	// helpers).
	SanitizerPattern string

	sanOnce sync.Once
	sanRe   *regexp.Regexp
}

// sanitizerRe compiles SanitizerPattern once (safe under the parallel
// driver).
func (c *Config) sanitizerRe() *regexp.Regexp {
	c.sanOnce.Do(func() {
		pat := c.SanitizerPattern
		if pat == "" {
			pat = `(?i)^(verify|valid)`
		}
		c.sanRe = regexp.MustCompile(pat)
	})
	return c.sanRe
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
			"pvn/internal/overlay":       true,
			"pvn/internal/scenario":      true,
			"pvn/internal/orchestrator":  true,
		},
		MiddleboxPkgs: map[string]bool{
			"pvn/internal/middlebox":     true,
			"pvn/internal/middlebox/mbx": true,
		},
		SupervisorFiles: map[string]bool{"supervisor.go": true},
		ProjectPrefix:   "pvn",
		TaintPkgs: map[string]bool{
			"pvn/internal/overlay":      true,
			"pvn/internal/discovery":    true,
			"pvn/internal/deployserver": true,
			"pvn/internal/orchestrator": true,
			"pvn/internal/store":        true,
			"pvn/internal/pvnc":         true,
		},
		TaintSources: map[string]bool{
			"pvn/internal/overlay.DecodeEnvelope": true,
			"pvn/internal/store.DecodeModule":     true,
			"pvn/internal/pvnc.Parse":             true,
			"pvn/internal/pki.DecodeCertificate":  true,
			"pvn/internal/pki.DecodeChain":        true,
		},
		TaintFieldSources: map[string]bool{
			// FaultInjector-delivered control traffic arrives here.
			"pvn/internal/netsim.Message.Payload": true,
		},
		TaintSinks: map[string]bool{
			"pvn/internal/openflow.FlowMod.Apply":           true,
			"pvn/internal/openflow.FlowTable.Install":       true,
			"pvn/internal/openflow.FlowTable.InstallAll":    true,
			"pvn/internal/openflow.FlowTable.AddMeter":      true,
			"pvn/internal/pvnc.Compile":                     true,
			"pvn/internal/pvnc.TemplateCache.CompileShared": true,
			"pvn/internal/middlebox.Runtime.Instantiate":    true,
			"pvn/internal/middlebox.Runtime.BuildChainIn":   true,
			"pvn/internal/deployserver.Server.HandleDeploy": true,
		},
		WireTypes: map[string]bool{
			"pvn/internal/overlay.Record":   true,
			"pvn/internal/overlay.Envelope": true,
		},
	}
}

// Analyzers returns every registered check, in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondetAnalyzer,
		ClockParamAnalyzer,
		FailPolicyAnalyzer,
		UnlockedFieldAnalyzer,
		ErrDropAnalyzer,
		TrustFlowAnalyzer,
		LockOrderAnalyzer,
		GoLeakAnalyzer,
	}
}

// Run executes the analyzers over the packages, applies `//lint:allow`
// suppressions, and returns the surviving diagnostics sorted by
// position. Malformed annotations surface as "lint" diagnostics.
//
// Per-package passes run concurrently (one worker per CPU); module
// analyzers run concurrently with each other after the allow set is
// collected. Suppressions are filtered against the global set — keys
// are (file, line, check), so cross-package module findings suppress
// exactly like package ones.
func Run(cfg *Config, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	allows := allowSet{}
	for _, pkg := range pkgs {
		set, bad := suppressions(pkg)
		diags = append(diags, bad...)
		for k := range set {
			allows[k] = true
		}
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

// suppressions scans a package's comments for //lint:allow annotations.
// Well-formed ones land in the returned set keyed by the line they sit
// on; annotations with no reason come back as diagnostics instead —
// an unexplained suppression is exactly the review drift the linter
// exists to stop.
func suppressions(pkg *Package) (allowSet, []Diagnostic) {
	set := allowSet{}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(m[3]) == "" {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Check:   "lint",
						Message: fmt.Sprintf("//lint:allow %s has no reason; write //lint:allow %s <why>", m[1], m[1]),
					})
					continue
				}
				set[allowKey{pos.Filename, pos.Line, m[1]}] = true
			}
		}
	}
	return set, bad
}

// Allows lists every well-formed //lint:allow annotation in the
// packages (check, reason, position) so suppressions stay reviewable
// (`make lint-fix-audit`).
type Allow struct {
	Pos    token.Position
	Check  string
	Reason string
}

// CollectAllows returns all annotations sorted by position.
func CollectAllows(pkgs []*Package) []Allow {
	var out []Allow
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil || strings.TrimSpace(m[3]) == "" {
						continue
					}
					out = append(out, Allow{
						Pos:    pkg.Fset.Position(c.Pos()),
						Check:  m[1],
						Reason: strings.TrimSpace(m[3]),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}
