package lint

// The taint dataflow engine behind trustflow. One analysis instance
// walks a function's CFG forward, tracking which values derive from
// untrusted input ("tainted") through a path-keyed abstract state:
//
//	taintKey{root: <*types.Var for lk>, path: ".records"} → bit mask
//
// Bit 0 (taintSource) marks real wire taint; bits 1..62 mark "derives
// from parameter i", which is how call summaries are computed: analyze
// a function once with each parameter carrying its own bit, observe
// which bits reach sinks, sanitizers and returns, and the resulting
// taintSummary lets callers reason about the call without reanalyzing
// the body (the ISSUE's one-level call-summary propagation; summaries
// are computed in two rounds, so summary-of-summary gives two levels).
//
// Joins union masks (may-taint); assignments to a resolvable path are
// strong updates (the old marks on that path and its extensions are
// replaced), writes through an index are weak (the container keeps the
// union). A call whose callee name matches Config.SanitizerRe clears
// the receiver and pointer arguments — Verify/Validate vouch for the
// whole value.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const taintSource uint64 = 1

// paramBit returns the summary bit for parameter i (receiver counts as
// parameter 0 on methods). Functions with more than 62 parameters lose
// precision on the tail; none exist here.
func paramBit(i int) uint64 {
	if i > 61 {
		i = 61
	}
	return 1 << (uint(i) + 1)
}

type taintKey struct {
	root *types.Var
	path string
}

type taintState map[taintKey]uint64

func cloneTaint(st taintState) taintState {
	out := make(taintState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// joinTaint unions two states under the longest-prefix-mark semantics:
// a key present in only one side still has an *effective* value on the
// other (its nearest explicit prefix mark), so absent keys are
// materialized before OR-ing. Values only grow — termination.
func joinTaint(dst, src taintState) (taintState, bool) {
	changed := false
	for k := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = baseTaint(dst, k.root, k.path)
		}
	}
	for k, dv := range dst {
		sv, ok := src[k]
		if !ok {
			sv = baseTaint(src, k.root, k.path)
		}
		if nv := dv | sv; nv != dv {
			dst[k] = nv
			changed = true
		}
	}
	return dst, changed
}

// baseTaint is the value of the longest explicit mark on a prefix of
// path (the mark that governs reads of path absent an exact entry).
func baseTaint(st taintState, root *types.Var, path string) uint64 {
	best := -1
	var v uint64
	for k, kv := range st {
		if k.root != root || !prefixPath(k.path, path) {
			continue
		}
		if len(k.path) > best {
			best, v = len(k.path), kv
		}
	}
	return v
}

// taintSummary is what a caller needs to know about one function.
type taintSummary struct {
	// sanitizes[i]: the body verifies parameter i, so the caller's
	// argument is trusted after the call.
	sanitizes []bool
	// sinkPos[i]/sinkWhat[i]: parameter i reaches a sink or persistent
	// store inside the body without first being sanitized.
	sinkPos  []token.Pos
	sinkWhat []string
	// propagates[i]: parameter i flows into a return value.
	propagates []bool
	// paramOut[i]: the body writes caller-visible data through pointer
	// parameter i (out-param); paramOutSource[i] marks those writes as
	// carrying source taint.
	paramOut       []bool
	paramOutSource []bool
	// sourceRet: the body returns data obtained from a taint source.
	sourceRet bool
}

// taintAnalysis carries one function's run; the maps shared across
// functions (summaries, persistent roots) live on the trustflow driver.
type taintAnalysis struct {
	cfg       *Config
	pkg       *Package
	fset      *token.FileSet
	summaries map[*types.Func]*taintSummary

	params     []*types.Var
	persistent map[*types.Var]bool

	// sum collects the summary during the summary phase; report emits
	// findings during the reporting phase. Exactly one is non-nil.
	sum    *taintSummary
	report func(pos token.Pos, format string, args ...interface{})
}

// analyzeBody runs the engine over one function body. presumeWire
// seeds wire-typed parameters (Config.WireTypes) with real taint —
// used in the reporting phase for exported functions and function
// literals, whose callers the analysis cannot enumerate.
func (a *taintAnalysis) analyzeBody(sig *types.Signature, body *ast.BlockStmt, presumeWire bool) {
	a.params = signatureParams(sig)
	if a.sum != nil {
		n := len(a.params)
		a.sum.sanitizes = make([]bool, n)
		a.sum.sinkPos = make([]token.Pos, n)
		a.sum.sinkWhat = make([]string, n)
		a.sum.propagates = make([]bool, n)
		a.sum.paramOut = make([]bool, n)
		a.sum.paramOutSource = make([]bool, n)
	}
	// The receiver is the state a method persists into; other pointer
	// parameters are out-params owned by the caller (store() treats
	// tainted writes through them as propagation, not sinks).
	a.persistent = map[*types.Var]bool{}
	if r := sig.Recv(); r != nil && escapes(r.Type()) {
		a.persistent[a.params[0]] = true
	}
	a.seedAliases(body)

	init := taintState{}
	for i, p := range a.params {
		mask := paramBit(i)
		// Wire-typed parameters are presumed untrusted — but not the
		// receiver of the wire type's own methods: codec and crypto
		// plumbing (Sign, Verify, wellFormed) operates pre-trust by
		// construction.
		isRecv := i == 0 && sig.Recv() != nil
		if presumeWire && !isRecv && isWireType(a.cfg, p.Type()) {
			mask |= taintSource
		}
		if a.sum != nil || mask&taintSource != 0 {
			init[taintKey{p, ""}] = mask
		}
	}

	g := buildCFG(body)
	in := solveForward(g, init, cloneTaint, joinTaint,
		func(b *cfgBlock, st taintState) taintState {
			for _, n := range b.nodes {
				a.node(st, n, false)
			}
			return st
		})
	// Reporting pass: one visit per reached block with converged facts.
	for _, b := range g.blocks {
		st, ok := in[b]
		if !ok {
			continue
		}
		st = cloneTaint(st)
		for _, n := range b.nodes {
			a.node(st, n, true)
		}
	}
}

// seedAliases marks local variables that alias persistent state, e.g.
// `byPub := lk.records[key]` — a write through byPub mutates lk. Two
// passes catch alias-of-alias.
func (a *taintAnalysis) seedAliases(body *ast.BlockStmt) {
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, _ := a.pkg.Info.Defs[id].(*types.Var)
				if v == nil {
					v, _ = a.pkg.Info.Uses[id].(*types.Var)
				}
				if v == nil || !escapes(v.Type()) {
					continue
				}
				if root, _, ok := a.pathOf(as.Rhs[i]); ok && a.isPersistent(root) {
					a.persistent[v] = true
				}
			}
			return true
		})
	}
}

func (a *taintAnalysis) isPersistent(v *types.Var) bool {
	if v == nil {
		return false
	}
	if a.persistent[v] {
		return true
	}
	// Package-level variables persist by definition.
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// escapes reports whether writing through a value of type t is visible
// outside the function (reference semantics).
func escapes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// node transfers one CFG node. In the solve pass report is false (no
// findings, summary bits only accumulate via sinkHit); the final pass
// re-runs with report=true on converged facts.
func (a *taintAnalysis) node(st taintState, n cfgNode, report bool) {
	if n.Cond != nil {
		a.eval(st, n.Cond, report)
		return
	}
	switch s := n.Stmt.(type) {
	case *ast.AssignStmt:
		a.assign(st, s, report)
	case *ast.ExprStmt:
		a.eval(st, s.X, report)
	case *ast.SendStmt:
		v := a.eval(st, s.Value, report)
		a.eval(st, s.Chan, report)
		if root, path, ok := a.pathOf(s.Chan); ok && v != 0 {
			st[taintKey{root, path}] |= v
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t uint64
					if len(vs.Values) == len(vs.Names) {
						t = a.eval(st, vs.Values[i], report)
					} else if len(vs.Values) == 1 {
						t = a.eval(st, vs.Values[0], report)
					}
					if v, _ := a.pkg.Info.Defs[name].(*types.Var); v != nil {
						a.store(st, v, "", t, name.Pos(), report)
					}
				}
			}
		}
	case *ast.RangeStmt:
		t := a.eval(st, s.X, report)
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e == nil {
				continue
			}
			if root, path, ok := a.pathOf(e); ok {
				a.store(st, root, path, t, e.Pos(), report)
			}
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			t := a.eval(st, res, report)
			if a.sum == nil || t == 0 {
				continue
			}
			if t&taintSource != 0 {
				a.sum.sourceRet = true
			}
			for i := range a.params {
				if t&paramBit(i) != 0 {
					a.sum.propagates[i] = true
				}
			}
		}
	case *ast.GoStmt:
		a.eval(st, s.Call, report)
	case *ast.DeferStmt:
		a.eval(st, s.Call, report)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt, nil:
	default:
		// Statements with nested expressions we don't model explicitly:
		// evaluate any calls inside for their side effects.
		if n.Stmt != nil {
			ast.Inspect(n.Stmt, func(x ast.Node) bool {
				if c, ok := x.(*ast.CallExpr); ok {
					a.eval(st, c, report)
					return false
				}
				return true
			})
		}
	}
}

func (a *taintAnalysis) assign(st taintState, s *ast.AssignStmt, report bool) {
	var rhs []uint64
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Tuple: every lhs inherits the call/lookup's taint.
		t := a.eval(st, s.Rhs[0], report)
		for range s.Lhs {
			rhs = append(rhs, t)
		}
	} else {
		for _, r := range s.Rhs {
			rhs = append(rhs, a.eval(st, r, report))
		}
	}
	for i, lhs := range s.Lhs {
		if i >= len(rhs) {
			break
		}
		t := rhs[i]
		if s.Tok.String() != "=" && s.Tok.String() != ":=" {
			// Compound (+=, |=, …): old value contributes.
			t |= a.eval(st, lhs, false)
		}
		root, path, ok := a.pathOf(lhs)
		if !ok {
			continue
		}
		a.store(st, root, path, t, lhs.Pos(), report)
	}
}

// store performs the abstract write, flagging tainted writes into
// persistent state (the "store write" sink class) and recording writes
// through pointer parameters as out-param propagation for summaries.
func (a *taintAnalysis) store(st taintState, root *types.Var, path string, t uint64, pos token.Pos, report bool) {
	indexed := strings.HasSuffix(path, "[]")
	key := taintKey{root, strings.TrimSuffix(path, "[]")}
	if indexed {
		// Weak update: the container keeps its old marks (materialize
		// the inherited base so the new mark doesn't shadow it).
		if t != 0 {
			st[key] = taintOf(st, root, key.path) | t
		}
	} else {
		for k := range st {
			if k.root == root && k.path != key.path && prefixPath(key.path, k.path) {
				delete(st, k)
			}
		}
		// Explicit mark even when clean: a 0 entry shadows a tainted
		// prefix (x.f = cleanValue makes x.f trusted even if x isn't).
		st[key] = t
	}
	if t == 0 {
		return
	}
	if a.isPersistent(root) {
		a.sinkHit(pos, "persistent state", t, report)
		return
	}
	// A tainted write through a non-receiver pointer parameter hands
	// the data back to the caller — propagation, not a sink.
	if a.sum != nil && (path != "" || indexed) && escapes(root.Type()) {
		for j, p := range a.params {
			if p == root {
				a.sum.paramOut[j] = true
				if t&taintSource != 0 {
					a.sum.paramOutSource[j] = true
				}
			}
		}
	}
}

// sinkHit routes a tainted-value-reaches-sink event: real taint becomes
// a finding (reporting phase), parameter bits become summary facts.
func (a *taintAnalysis) sinkHit(pos token.Pos, what string, t uint64, report bool) {
	if a.sum != nil {
		for i := range a.params {
			if t&paramBit(i) != 0 && a.sum.sinkPos[i] == 0 {
				a.sum.sinkPos[i] = pos
				a.sum.sinkWhat[i] = what
			}
		}
	}
	if report && a.report != nil && t&taintSource != 0 {
		a.report(pos, "unverified data flows into %s; verify (signature/Validate) before acting on wire input", what)
	}
}

// pathOf resolves an lvalue-ish expression to (root variable, field
// path). Index expressions append "[]" so store can apply weak updates.
func (a *taintAnalysis) pathOf(e ast.Expr) (*types.Var, string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := a.pkg.Info.Uses[e].(*types.Var)
		if v == nil {
			v, _ = a.pkg.Info.Defs[e].(*types.Var)
		}
		if v == nil {
			return nil, "", false
		}
		return v, "", true
	case *ast.SelectorExpr:
		if sel, ok := a.pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			root, path, ok := a.pathOf(e.X)
			if !ok {
				return nil, "", false
			}
			return root, path + "." + e.Sel.Name, true
		}
		return nil, "", false
	case *ast.StarExpr:
		return a.pathOf(e.X)
	case *ast.IndexExpr:
		root, path, ok := a.pathOf(e.X)
		if !ok {
			return nil, "", false
		}
		return root, path + "[]", true
	}
	return nil, "", false
}

// taintOf reads the state for a path: the longest explicit prefix mark
// governs (so a sanitized field shadows its tainted parent), OR-ed
// with marks on any extension (a struct with one tainted field is
// itself suspect when passed whole).
func taintOf(st taintState, root *types.Var, path string) uint64 {
	t := baseTaint(st, root, path)
	for k, v := range st {
		if k.root == root && k.path != path && prefixPath(path, k.path) {
			t |= v
		}
	}
	return t
}

func prefixPath(p, of string) bool {
	if !strings.HasPrefix(of, p) {
		return false
	}
	rest := of[len(p):]
	return rest == "" || rest[0] == '.' || rest[0] == '['
}

// eval computes an expression's taint and applies call side effects.
func (a *taintAnalysis) eval(st taintState, e ast.Expr, report bool) uint64 {
	switch e := ast.Unparen(e).(type) {
	case nil:
		return 0
	case *ast.Ident:
		if v, ok := a.pkg.Info.Uses[e].(*types.Var); ok {
			return taintOf(st, v, "")
		}
		return 0
	case *ast.SelectorExpr:
		if fv := a.fieldVarOf(e); fv != nil {
			if a.cfg.TaintFieldSources[qualifiedField(fv)] {
				return taintSource
			}
		}
		if root, path, ok := a.pathOf(e); ok {
			return taintOf(st, root, path)
		}
		// Package-qualified or method value: no data taint.
		return a.eval(st, e.X, report)
	case *ast.StarExpr:
		return a.eval(st, e.X, report)
	case *ast.UnaryExpr:
		return a.eval(st, e.X, report)
	case *ast.BinaryExpr:
		return a.eval(st, e.X, report) | a.eval(st, e.Y, report)
	case *ast.IndexExpr:
		a.eval(st, e.Index, report)
		return a.eval(st, e.X, report)
	case *ast.SliceExpr:
		return a.eval(st, e.X, report)
	case *ast.TypeAssertExpr:
		return a.eval(st, e.X, report)
	case *ast.CompositeLit:
		var t uint64
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t |= a.eval(st, kv.Value, report)
				continue
			}
			t |= a.eval(st, el, report)
		}
		return t
	case *ast.CallExpr:
		return a.call(st, e, report)
	case *ast.FuncLit:
		// Literals are analyzed as their own functions; see trustflow.
		return 0
	}
	return 0
}

func (a *taintAnalysis) fieldVarOf(sel *ast.SelectorExpr) *types.Var {
	s, ok := a.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// call is the transfer function for calls: configured sources, sinks,
// sanitizers, summaries for module functions, conservative propagation
// for everything else.
func (a *taintAnalysis) call(st taintState, call *ast.CallExpr, report bool) uint64 {
	// Type conversion: T(x) keeps x's taint.
	if tv, ok := a.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return a.eval(st, call.Args[0], report)
		}
		return 0
	}

	fn := calleeOf(a.pkg.Info, call)

	// Receiver (for methods) + arguments, with their taints.
	var argExprs []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isSel := a.pkg.Info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			argExprs = append(argExprs, sel.X)
		}
	}
	argExprs = append(argExprs, call.Args...)
	argTaints := make([]uint64, len(argExprs))
	var all uint64
	for i, arg := range argExprs {
		argTaints[i] = a.eval(st, arg, report)
		all |= argTaints[i]
	}

	if fn == nil {
		// Function values, builtins (append, copy, len…): propagate.
		return all
	}
	qn := qualifiedName(fn)

	// Stdlib JSON decoding moves taint from the data to the target.
	if qn == "encoding/json.Unmarshal" && len(call.Args) == 2 {
		if root, path, ok := a.pathOf(call.Args[1]); ok && argTaints[len(argTaints)-2] != 0 {
			st[taintKey{root, strings.TrimSuffix(path, "[]")}] |= argTaints[len(argTaints)-2]
		}
		return 0
	}

	if a.cfg.TaintSources[qn] {
		return taintSource
	}

	if a.cfg.TaintSinks[qn] {
		for i, t := range argTaints {
			if t != 0 {
				a.sinkHit(argExprs[i].Pos(), fmt.Sprintf("sink %s", fn.Name()), t, report)
			}
		}
		return 0
	}

	sum := a.summaries[fn]

	// Sanitizers vouch for their receiver and pointer arguments.
	sanitizer := inProject(a.cfg, fn) && a.cfg.sanitizerRe().MatchString(fn.Name())
	if sanitizer || sum != nil {
		for i, arg := range argExprs {
			clear := sanitizer
			if sum != nil && i < len(sum.sanitizes) && sum.sanitizes[i] {
				clear = true
			}
			if !clear {
				continue
			}
			if root, path, ok := a.pathOf(arg); ok {
				a.clearPath(st, root, strings.TrimSuffix(path, "[]"))
			}
			argTaints[i] = 0
			if a.sum != nil {
				// Record transitively: sanitizing our own parameter
				// makes this function a sanitizer for it too.
				if root, path, ok := a.pathOf(arg); ok && path == "" {
					for j, p := range a.params {
						if p == root {
							a.sum.sanitizes[j] = true
						}
					}
				}
			}
		}
	}
	if sanitizer {
		return 0
	}

	if sum != nil {
		var ret, all uint64
		for i, t := range argTaints {
			all |= t
			if t == 0 || i >= len(sum.sinkPos) {
				if i < len(sum.propagates) && sum.propagates[i] {
					ret |= t
				}
				continue
			}
			if sum.sinkPos[i] != 0 {
				a.sinkHit(argExprs[i].Pos(), fmt.Sprintf("%s, which writes it to %s at %s", fn.Name(), sum.sinkWhat[i], a.fset.Position(sum.sinkPos[i])), t, report)
			}
			if sum.propagates[i] {
				ret |= t
			}
		}
		// Out-params: the callee writes caller-visible data through
		// these; taint them with what flowed in (plus source taint if
		// the callee writes wire data it obtained itself).
		for i, arg := range argExprs {
			if i >= len(sum.paramOut) || !sum.paramOut[i] {
				continue
			}
			add := all
			if sum.paramOutSource[i] {
				add |= taintSource
			}
			if add == 0 {
				continue
			}
			if root, path, ok := a.pathOf(arg); ok {
				p := strings.TrimSuffix(path, "[]")
				st[taintKey{root, p}] = taintOf(st, root, p) | add
			}
		}
		if sum.sourceRet {
			ret |= taintSource
		}
		return ret
	}

	// Unknown callee: conservative propagation, no side effects.
	return all
}

func (a *taintAnalysis) clearPath(st taintState, root *types.Var, path string) {
	for k := range st {
		if k.root == root && k.path != path && prefixPath(path, k.path) {
			delete(st, k)
		}
	}
	// Explicit clean mark: shadows any tainted prefix.
	st[taintKey{root, path}] = 0
}

// signatureParams returns receiver + parameters as declared variables.
func signatureParams(sig *types.Signature) []*types.Var {
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
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

// qualifiedName names a function for the Config lists:
// "pkg/path.Func" or "pkg/path.Type.Method" (pointer stripped).
func qualifiedName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// qualifiedField names a struct field "pkg/path.Type.Field" for
// Config.TaintFieldSources. Fields of unnamed structs come back
// unqualified and never match.
func qualifiedField(f *types.Var) string {
	if f.Pkg() == nil {
		return f.Name()
	}
	return f.Pkg().Path() + "." + fieldOwner(f) + f.Name()
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

// isWireType reports whether t is (a pointer/slice/array of) a
// configured wire type — data that crossed a trust boundary.
func isWireType(cfg *Config, t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Named:
			if u.Obj().Pkg() == nil {
				return false
			}
			return cfg.WireTypes[u.Obj().Pkg().Path()+"."+u.Obj().Name()]
		default:
			return false
		}
	}
}
