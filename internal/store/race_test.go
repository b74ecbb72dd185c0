//go:build race

package store

// Allocation counts under the race detector are not the code's own
// (TestAppendAllocBudget skips).
func init() { raceEnabled = true }
