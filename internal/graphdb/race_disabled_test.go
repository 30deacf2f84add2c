//go:build !race

package graphdb

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
