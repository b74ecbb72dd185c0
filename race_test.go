//go:build race

package critter_test

// Under the race detector sync.Pool drops a share of what it is handed, so
// allocation counts are not the code's own (TestAllocBudgets skips).
func init() { raceEnabled = true }
