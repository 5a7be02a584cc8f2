// Package leak reaches the wall clock through the module's perf-counter
// helper from a deterministic package it does not serve.
package leak

import "nondet"

func Elapsed(start int64) int64 {
	return nondet.PerfStamp() - start // want `nondet\.PerfStamp reads the wall clock for perf counters`
}

// Clock leaks it as a value, not a call — still flagged.
var Clock = nondet.PerfStamp // want `nondet\.PerfStamp reads the wall clock for perf counters`
