//go:build race

package overlay

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of Puts on purpose, so a test that asserts an
// exact allocation count over pooled memory (json.Valid's scanner)
// checks this first.
const raceEnabled = true
