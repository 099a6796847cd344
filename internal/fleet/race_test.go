//go:build race

package fleet

// raceEnabled: the race detector drops a share of sync.Pool puts on
// purpose, so allocation bounds do not hold under it.
const raceEnabled = true
