//go:build race

package kvcache

// raceEnabled reports whether the race detector is compiled in; allocation
// guards skip under it (instrumentation changes allocation counts).
const raceEnabled = true
