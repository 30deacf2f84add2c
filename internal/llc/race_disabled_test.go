//go:build !race

package llc

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
