//go:build !race

package mbx

const raceEnabled = false
