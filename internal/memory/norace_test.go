//go:build !race

package memory_test

const raceEnabled = false
