//go:build race

package storage

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
