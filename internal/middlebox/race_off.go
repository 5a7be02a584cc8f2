//go:build !race

package middlebox

const raceEnabled = false
