//go:build race

package slate

// Allocation counts under the race detector are not the code's own: the
// race runtime mallocs on its own schedule.
func init() { raceEnabled = true }
