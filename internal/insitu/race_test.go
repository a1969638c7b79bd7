//go:build race

package insitu

func init() { raceEnabled = true }
