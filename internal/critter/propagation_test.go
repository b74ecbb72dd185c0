package critter

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"critter/internal/golden"
	"critter/internal/mpi"
	"critter/internal/obs"
)

// Propagation tests: what each rank's path-frequency table holds after each
// kind of propagation point. The tables are compared as text — one
// "name/p1=count" entry per nonzero kernel, sorted — so a golden line pins
// every id of every rank.

// freqString renders a PathFreqs map canonically.
func freqString(freqs map[Key]int64) string {
	parts := make([]string, 0, len(freqs))
	for k, v := range freqs {
		parts = append(parts, fmt.Sprintf("%s/%d=%d", k.Name(), k.P1, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// pathTimeString renders a pathset's time metrics as exact float bits.
func pathTimeString(ps Pathset) string {
	return fmt.Sprintf("exec=%x comm=%x", math.Float64bits(ps.ExecTime), math.Float64bits(ps.CommTime))
}

// roundString renders one round event: op, virtual-clock bits, memoized flag.
func roundString(ev obs.Event) string {
	return fmt.Sprintf("%s %x %d", ev.Name, math.Float64bits(ev.Virtual), ev.Memoized)
}

// pathFreqsLog collects, per step and rank, the canonical table text and the
// path's time metrics.
type pathFreqsLog struct {
	mu    sync.Mutex
	steps [][]string
	times [][]string
	ranks int
}

// stepLines renders a per-step, per-rank table one self-describing line per
// entry ("<kind> step=3 rank=1 <text>"), so a golden diff names the step and
// rank.
func stepLines(kind string, table [][]string) []byte {
	var b bytes.Buffer
	for s, row := range table {
		for r, v := range row {
			fmt.Fprintf(&b, "%s step=%d rank=%d %s\n", kind, s, r, v)
		}
	}
	return b.Bytes()
}

func (l *pathFreqsLog) note(step, rank int, p *Profiler) {
	s, ts := freqString(p.PathFreqs()), pathTimeString(p.path)
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.steps) <= step {
		l.steps = append(l.steps, make([]string, l.ranks))
		l.times = append(l.times, make([]string, l.ranks))
	}
	l.steps[step][rank] = s
	l.times[step][rank] = ts
}

// TestOnlinePathFreqsPinned runs a 4-rank online program through every
// propagation path — the internal allreduce of world and sub-communicator
// collectives, Isend/Recv/Waitall in both pairings, the combined Sendrecv
// exchange — twice over, so the second pass runs entirely on recycled
// buffers, and pins, each subtest against its own file under testdata/:
//   - freqs (online_path_freqs.golden): every rank's PathFreqs() after
//     every step, and rank 0's GlobalPathFreqs() at the end (global);
//   - times (online_path_times.golden): each rank's path ExecTime and
//     CommTime after every step, as float bits. A change to the order of
//     adoption against charging moves these, and the counts with them: a
//     collective's members adopt the table of the longest path into it,
//     and which path is longest moves with the times;
//   - rounds (online_path_rounds.golden): rank 0's stream of round events
//     (op, virtual-clock bits, memoized flag), which critter-trace's per-op
//     table reads.
//
// Regenerate with `bash scripts/restat.sh`.
func TestOnlinePathFreqsPinned(t *testing.T) {
	const ranks = 4
	log := &pathFreqsLog{ranks: ranks}
	var global string
	w := mpi.NewWorld(ranks, testMachine(0.05), 7)
	ring := obs.NewRing(1024, nil)
	w.SetTracer(ring)
	err := w.Run(func(c *mpi.Comm) {
		p, cc := New(c, Options{Policy: Online, Eps: 0.25})
		r := cc.Rank()
		row := cc.Split(r/2, r)
		buf, out := make([]float64, 16), make([]float64, 16)
		step := 0
		note := func() {
			log.note(step, r, p)
			step++
		}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i <= r; i++ {
				p.Kernel("a", 4, 4, 4, 0, 1e5*float64(r+1), func() {})
			}
			p.Kernel("b", 2+pass, 2, 2, 0, 1e4, func() {})
			note()
			cc.Allreduce(buf, out, mpi.OpSum)
			note()
			// Nonblocking pairs 0->1 and 2->3; the receiver counts a kernel
			// the sender never sees until its Waitall adopts the reply.
			if r%2 == 0 {
				cc.Isend(r+1, 5, buf[:8])
				p.Kernel("c", 3, r, 1, 0, 2e5, func() {})
				p.Waitall()
			} else {
				p.Kernel("d", 3, r, 1, 0, 1e5, func() {})
				cc.Recv(r-1, 5, buf[:8])
			}
			note()
			p.Kernel("e", 1+r, 1, 1, 0, 3e5*float64(ranks-r), func() {})
			cc.Sendrecv(r^1, 9, buf[:4], out[:4])
			note()
			// Nonblocking pairs 1->2 and 3->0, across the first pairing.
			if r%2 == 1 {
				cc.Isend((r+1)%ranks, 11, buf[:2])
				p.Waitall()
			} else {
				cc.Recv((r+ranks-1)%ranks, 11, buf[:2])
			}
			note()
			p.Kernel("f", r, 7, 7, 0, 5e4*float64(1+r%2), func() {})
			row.Bcast(0, buf[:6])
			note()
			cc.Barrier()
			note()
		}
		freqs := p.GlobalPathFreqs()
		if r == 0 {
			global = freqString(freqs)
		}
		p.Retire()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("freqs", func(t *testing.T) {
		got := append(stepLines("freqs", log.steps), "global rank=0 "+global+"\n"...)
		golden.Check(t, filepath.Join("testdata", "online_path_freqs.golden"), got)
	})
	t.Run("times", func(t *testing.T) {
		golden.Check(t, filepath.Join("testdata", "online_path_times.golden"), stepLines("times", log.times))
	})
	t.Run("rounds", func(t *testing.T) {
		if ring.Dropped() != 0 {
			t.Fatalf("trace ring dropped %d events", ring.Dropped())
		}
		var b bytes.Buffer
		for _, ev := range ring.Events() {
			if ev.Kind == obs.KindRound {
				fmt.Fprintf(&b, "round rank=0 %s\n", roundString(ev))
			}
		}
		golden.Check(t, filepath.Join("testdata", "online_path_rounds.golden"), b.Bytes())
	})
}

// TestP2PAdoptsPeerTableUnconditionally pins what point-to-point propagation
// does today, which is not what pathset.go's header says of K-tilde: Recv,
// Sendrecv and Waitall install the peer's table whether or not the peer's
// path is the longer one, so the two ends of a pair swap tables. Collectives
// adopt the maximal-ExecTime rank's table as Figure 2 (lines 64-65)
// prescribes. The swap feeds freqFor under the online policy, i.e. the skip
// decision; it is recorded under ROADMAP item 1(b) as a suspect for
// pred_err_pct, to be changed only by a PR that may move the goldens.
func TestP2PAdoptsPeerTableUnconditionally(t *testing.T) {
	long, short := CompKey("long", 1, 1, 1, 0), CompKey("short", 1, 1, 1, 0)
	check := func(t *testing.T, swap bool, exchange func(cc *Comm, buf []float64)) {
		t.Helper()
		w := mpi.NewWorld(2, testMachine(0), 7)
		err := w.Run(func(c *mpi.Comm) {
			p, cc := New(c, Options{Policy: Online, Eps: 0})
			// Rank 0 owns the longer path by a wide margin.
			if cc.Rank() == 0 {
				for i := 0; i < 5; i++ {
					p.Kernel("long", 1, 1, 1, 0, 1e9, func() {})
				}
			} else {
				p.Kernel("short", 1, 1, 1, 0, 1e3, func() {})
			}
			exchange(cc, make([]float64, 4))
			got := p.PathFreqs()
			wantLong, wantShort := int64(5), int64(0)
			if swap && cc.Rank() == 0 {
				wantLong, wantShort = 0, 1
			}
			if got[long] != wantLong || got[short] != wantShort {
				t.Errorf("rank %d after exchange: long=%d short=%d, want %d and %d",
					cc.Rank(), got[long], got[short], wantLong, wantShort)
			}
			// The execution-time metric, unlike the table, is max-merged.
			if cc.Rank() == 1 && p.path.ExecTime < 0.2 {
				t.Errorf("rank 1 ExecTime %g: the longer path's time was not adopted", p.path.ExecTime)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Run("isend-recv-wait", func(t *testing.T) {
		check(t, true, func(cc *Comm, buf []float64) {
			if cc.Rank() == 1 {
				cc.Isend(0, 0, buf)
				cc.Profiler().Waitall()
			} else {
				cc.Recv(1, 0, buf)
			}
		})
	})
	t.Run("collective takes the longest path", func(t *testing.T) {
		check(t, false, func(cc *Comm, buf []float64) { cc.Barrier() })
	})
	t.Run("sendrecv", func(t *testing.T) {
		check(t, true, func(cc *Comm, buf []float64) {
			cc.Sendrecv(cc.Rank()^1, 0, buf, make([]float64, 4))
		})
	})
}

// TestP2PWaitChargedOnce holds the order of adoption against charging to
// the cost model on a noise-free machine with nothing skipped. Rank 0 runs
// a compute kernel and then exchanges with rank 1, which enters the
// exchange at once, so rank 1 idles for the kernel's whole duration. Its
// path must end at the kernel's cost plus one transfer: a point-to-point
// op's duration already holds that wait, and the adopted peer path must
// not add it again. The collective case is the control: its internal
// allreduce absorbs the wait before the user op is timed, so it adopts
// first and its leg is the transfer alone.
func TestP2PWaitChargedOnce(t *testing.T) {
	const words, flops = 16, 1e8
	m := testMachine(0)
	kernel := m.ComputeTime(flops)
	p2p := m.PtToPtTime(8*words) + m.Alpha // injection, then one latency to arrival
	cases := []struct {
		name     string
		transfer float64
		exchange func(cc *Comm, buf []float64)
	}{
		{"sendrecv", p2p, func(cc *Comm, buf []float64) {
			cc.Sendrecv(cc.Rank()^1, 0, buf, make([]float64, words))
		}},
		{"isend-recv-wait", p2p, func(cc *Comm, buf []float64) {
			if cc.Rank() == 0 {
				cc.Isend(1, 0, buf)
				cc.Profiler().Waitall()
			} else {
				cc.Recv(0, 0, buf)
			}
		}},
		{"bcast", m.CollectiveTime(8*words, 2), func(cc *Comm, buf []float64) {
			cc.Bcast(0, buf)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := mpi.NewWorld(2, m, 7)
			err := w.Run(func(c *mpi.Comm) {
				p, cc := New(c, Options{Policy: Online, Eps: 0})
				if cc.Rank() == 0 {
					p.Kernel("work", 64, 64, 64, 0, flops, func() {})
				}
				tc.exchange(cc, make([]float64, words))
				if p.skipped != 0 {
					t.Errorf("rank %d skipped %d kernels at eps 0", cc.Rank(), p.skipped)
				}
				if cc.Rank() != 1 {
					return
				}
				want := kernel + tc.transfer
				if got := p.path.ExecTime; math.Abs(got-want) > 1e-12*want {
					t.Errorf("rank 1 path ExecTime %.17g, want kernel %g + transfer %g = %.17g",
						got, kernel, tc.transfer, want)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
