//go:build !race

package controlplane

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
