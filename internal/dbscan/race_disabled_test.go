//go:build !race

package dbscan_test

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it.
const raceEnabled = false
