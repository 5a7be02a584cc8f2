package lint

import (
	"go/ast"
	"go/types"
)

// NondetAnalyzer (check "nondet") flags wall-clock time, wall-clock
// tickers and timers, and global random state inside the
// simulation-deterministic packages, in every function. Those
// packages promise bit-identical behavior given a seed — experiment
// tables E1–E15, the discovery session state machine, tunnel health
// ladders, middlebox supervision — so every timestamp must come from
// the netsim clock (or an injected now func) and every random draw from
// a seeded netsim.RNG. A single time.Now() leaking in silently turns a
// reproducibility guarantee into a machine-speed artifact, and a ticker
// pins its caller to a wall-clock cadence netsim cannot compress or
// step; cadence comes from a netsim.Clock or a now func. The project's
// own perf-counter clocks (Config.PerfClocks) count as wall-clock reads
// outside the packages they serve.
var NondetAnalyzer = &Analyzer{
	Name: "nondet",
	Doc:  "wall-clock time (time.Now/Sleep/After/Since/Until/AfterFunc/NewTicker/NewTimer/Tick) or global math/rand in a simulation-deterministic package",
	Run:  runNondet,
}

// wallClockFuncs read, wait on or tick by the real clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Since": true, "Until": true,
	"NewTicker": true, "NewTimer": true, "Tick": true,
}

// seededRandOK are the math/rand names that do NOT touch the package's
// global generator: constructors for locally-seeded sources.
var seededRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNondet(pass *Pass) {
	if !pass.Config.DeterministicPkgs[pass.Pkg.Path] {
		return
	}
	pass.inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path, name, obj, ok := pass.pkgRef(sel)
		if !ok {
			return true
		}
		if callers, ok := pass.Config.PerfClocks[path+"."+name]; ok && !callers[pass.Pkg.Path] {
			pass.Reportf(sel.Pos(), "%s.%s reads the wall clock for perf counters; simulation-deterministic package %s may not call it", path, name, pass.Pkg.Path)
		}
		switch path {
		case "time":
			if wallClockFuncs[name] {
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock in simulation-deterministic package %s; use the netsim clock (or the package's injected now func)", name, pass.Pkg.Path)
			}
		case "math/rand", "math/rand/v2":
			// Types (rand.Rand, rand.Source) are fine; package-level
			// functions other than the seeded constructors draw from
			// global state.
			if _, isFunc := obj.(*types.Func); isFunc && !seededRandOK[name] {
				pass.Reportf(sel.Pos(), "math/rand.%s uses the global generator in simulation-deterministic package %s; use a seeded netsim.RNG (or rand.New)", name, pass.Pkg.Path)
			}
		}
		return true
	})
}
