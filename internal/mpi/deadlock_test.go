package mpi

// Deadlock detection and abort tests: a world whose run queue empties with
// ranks unfinished must return errDeadlock instead of hanging (a hang here
// fails by test timeout), at any world size, GOMAXPROCS and pick order; a
// rank's own failure, runtime.Goexit included, must win over the deadlock
// its exit leaves behind. The negative — a healthy 64-rank world never
// reports a false deadlock — is TestStressDeterminism64.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"critter/internal/sim"
)

func TestDeadlockDetected(t *testing.T) {
	cases := []struct {
		name string
		body func(c *Comm)
	}{
		{"recv-before-send cycle", func(c *Comm) {
			buf := make([]float64, 1)
			c.Recv((c.Rank()+c.Size()-1)%c.Size(), 0, buf)
			c.Send((c.Rank()+1)%c.Size(), 0, buf)
		}},
		{"collective a finished member never joins", func(c *Comm) {
			if c.Rank() != 0 {
				c.Barrier()
			}
		}},
		{"recv from a finished peer", func(c *Comm) {
			if c.Rank() == c.Size()-1 {
				c.Recv(0, 0, make([]float64, 1))
			}
		}},
		// Posts that cannot satisfy the wait must not ready the waiter: a
		// data message to ranks waiting on a round, a typed message to a
		// rank waiting on its data mailbox. The pick orders vary whether
		// the peers wait before the posts or after.
		{"stray messages to parked ranks", func(c *Comm) {
			if c.Rank() == 0 {
				for r := 1; r < c.Size(); r++ {
					c.Send(r, 9, []float64{1})
					LaneOf[int](c.World()).Send(c, r, 9, r)
				}
				return
			}
			if c.Rank()%2 == 1 {
				c.Barrier()
			} else {
				c.Recv(0, 0, make([]float64, 1))
			}
		}},
	}
	for _, procs := range []int{1, 2} {
		for _, size := range []int{2, 8, 64} {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("procs=%d/size=%d/%s", procs, size, tc.name), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					for _, o := range pickOrders {
						t.Run(o.name, func(t *testing.T) {
							err := o.world(size, sim.DefaultMachine(), 1).Run(tc.body)
							if !errors.Is(err, errDeadlock) {
								t.Fatalf("Run error %v is not the deadlock abort", err)
							}
						})
					}
				})
			}
		}
	}
}

// TestFailureBeatsDeadlock panics one rank while its peers wait for it: the
// exit leaves every other rank waiting, but Run must surface the original
// failure, not the deadlock verdict that follows it.
func TestFailureBeatsDeadlock(t *testing.T) {
	boom := errors.New("round abort")
	for round := 0; round < 25; round++ {
		err := NewWorld(8, sim.DefaultMachine(), uint64(round)).Run(func(c *Comm) {
			buf := make([]float64, 4)
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			for i := 0; i < 4; i++ {
				if c.Rank()%2 == 0 {
					c.Send(next, i, buf)
					c.Recv(prev, i, buf)
				} else {
					c.Recv(prev, i, buf)
					c.Send(next, i, buf)
				}
			}
			if c.Rank() == round%8 {
				panic(boom)
			}
			c.Barrier() // waiting here when the abort lands
		})
		if !errors.Is(err, boom) {
			t.Fatalf("round %d: error %v does not wrap the abort", round, err)
		}
	}
}

// TestRankGoexit exits rank 3 of 8 through runtime.Goexit (what t.Fatal
// does in a rank body) while the others wait in a Barrier. The coroutine
// re-raises the Goexit in the loop that resumed it, so Run must still
// return the failure, every other rank must unwind through its deferred
// functions, and no goroutine may be left behind.
func TestRankGoexit(t *testing.T) {
	before := runtime.NumGoroutine()
	var unwound [8]bool
	err := NewWorld(8, quietMachine(), 1).Run(func(c *Comm) {
		buf := make([]float64, 1)
		if c.Rank() == 3 {
			// Every other rank has sent, so each waits in the Barrier.
			for r := 0; r < c.Size(); r++ {
				if r != 3 {
					c.Recv(r, 0, buf)
				}
			}
			runtime.Goexit()
		}
		defer func() { unwound[c.Rank()] = true }()
		c.Send(3, 0, buf)
		c.Barrier()
		t.Errorf("rank %d passed a Barrier rank 3 never entered", c.Rank())
	})
	if err == nil || !strings.Contains(err.Error(), "rank 3 exited abnormally") {
		t.Fatalf("Run error %v, want rank 3's abnormal exit", err)
	}
	for r, ok := range unwound {
		if r != 3 && !ok {
			t.Errorf("rank %d did not run its deferred function", r)
		}
	}
	// The loop's goroutine may take a moment to be gone after Run returns.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1_000_000 {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}
