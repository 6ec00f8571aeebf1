//go:build race

package memory_test

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so no allocation guard over a pool can hold.
const raceEnabled = true
