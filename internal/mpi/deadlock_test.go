package mpi

// Deadlock detection and abort tests: a world whose every unfinished rank
// is blocked must return errDeadlock instead of hanging (a hang here fails
// by test timeout), at any world size and any GOMAXPROCS; a rank's own
// failure must win over the deadlock its exit leaves behind. The negative —
// a healthy 64-rank world never reports a false deadlock — is
// TestStressDeterminism64. Run under -race in CI.

import (
	"errors"
	"fmt"
	"runtime"
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
		// Posts that cannot satisfy the wait must not uncount the waiter: a
		// data message to ranks parked on a round, a typed message to a rank
		// parked on its data mailbox.
		{"stray messages to parked ranks", func(c *Comm) {
			if c.Rank() == 0 {
				// Let the peers park first (best effort; either order
				// must be detected).
				for i := 0; i < 100; i++ {
					runtime.Gosched()
				}
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
					err := NewWorld(size, sim.DefaultMachine(), 1).Run(tc.body)
					if !errors.Is(err, errDeadlock) {
						t.Fatalf("Run error %v is not the deadlock abort", err)
					}
				})
			}
		}
	}
}

// TestFailureBeatsDeadlock panics one rank while its peers wait for it: the
// exit leaves every other rank parked, but Run must surface the original
// failure, not the deadlock verdict that follows it. A fresh world each
// round exercises park/unpark/abort interleavings under -race.
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
			c.Barrier() // parked here when the abort lands
		})
		if !errors.Is(err, boom) {
			t.Fatalf("round %d: error %v does not wrap the abort", round, err)
		}
	}
}
