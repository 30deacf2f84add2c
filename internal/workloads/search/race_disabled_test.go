//go:build !race

package search

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
