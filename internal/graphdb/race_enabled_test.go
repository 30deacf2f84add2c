//go:build race

package graphdb

// raceEnabled reports whether the race detector is compiled in; the
// concurrency test runs fewer iterations under its slowdown.
const raceEnabled = true
