// Package counters is a configured caller of the module's perf-counter
// helper: not flagged.
package counters

import "nondet"

func Busy(start int64) int64 {
	return nondet.PerfStamp() - start
}
