//go:build race

package retrieval_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
