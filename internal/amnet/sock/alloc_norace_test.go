//go:build !race

package sock

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation guards are skipped.
const raceEnabled = false
