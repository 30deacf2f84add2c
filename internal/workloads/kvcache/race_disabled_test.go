//go:build !race

package kvcache

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
