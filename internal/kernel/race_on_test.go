//go:build race

package kernel

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
