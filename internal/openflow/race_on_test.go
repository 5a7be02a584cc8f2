//go:build race

package openflow

// raceEnabled reports whether the race detector is compiled in; it
// changes what the allocator does, so byte-budget tests check it first.
const raceEnabled = true
