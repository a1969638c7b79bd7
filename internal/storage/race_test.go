//go:build race

package storage

// The race detector makes sync.Pool drop items at random, so allocation
// bounds that rest on recycled encoders do not hold under it.
func init() { raceEnabled = true }
