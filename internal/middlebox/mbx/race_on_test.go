//go:build race

package mbx

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of Puts on purpose, so a test that asserts an
// allocation count or pointer identity over pooled memory checks this
// first.
const raceEnabled = true
