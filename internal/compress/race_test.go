//go:build race

package compress

// The race detector makes sync.Pool drop items at random, so allocation
// bounds that rest on pooled buffers do not hold under it.
func init() { raceEnabled = true }
