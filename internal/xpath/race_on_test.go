//go:build race

package xpath

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// the items put back on purpose, so allocation counts are not exact.
const raceEnabled = true
