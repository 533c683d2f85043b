//go:build race

package sqlmini

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// put back, so allocation counts do not hold under it.
const raceEnabled = true
