//go:build race

package middlebox

// raceEnabled reports whether the race detector is compiled in. Race
// builds poison a Context's decode storage at the end of every chain
// invocation, so a box that keeps a view of a packet past Process reads
// garbage instead of the next packet. The detector itself cannot flag
// that retention: the pool orders every reuse after the release.
const raceEnabled = true
