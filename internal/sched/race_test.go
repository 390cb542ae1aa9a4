//go:build race

package sched

// The race detector makes sync.Pool drop a random share of the values
// put back, so pooled storage is reallocated now and then.
func init() { raceEnabled = true }
