package critter

import (
	"testing"

	"critter/internal/mpi"
)

// TestMemoKeepsWorldSizesApart runs one configuration key on worlds of two
// sizes through one memo, the way a study keeps its name from quick to
// default scale: each size publishes and adopts its own table, so a run at
// one scale never interns into the other's.
func TestMemoKeepsWorldSizesApart(t *testing.T) {
	memo := NewKernelMemo()
	cfg := ConfigKey("study", 3)
	for i, step := range []struct {
		ranks        int
		hits, misses int64
	}{
		{2, 0, 1}, // first run anywhere: publishes
		{4, 0, 2}, // same key, other world size: a table of its own
		{2, 1, 2}, // adopts what the 2-rank run published
		{4, 2, 2}, // adopts what the 4-rank run published
	} {
		w := mpi.NewWorld(step.ranks, testMachine(0.05), 1)
		if err := w.Run(func(c *mpi.Comm) {
			p, _ := New(c, Options{Policy: Conditional, Eps: 0.3, Memo: memo})
			p.StartConfigKeyed(true, cfg)
			p.Kernel("gemm", 4, 4, 4, 0, 64, func() {})
			p.Report()
			p.Retire()
		}); err != nil {
			t.Fatal(err)
		}
		if h, m := memo.TableHits(); h != step.hits || m != step.misses {
			t.Errorf("run %d (%d ranks): %d hits and %d misses, want %d and %d",
				i+1, step.ranks, h, m, step.hits, step.misses)
		}
	}
}
