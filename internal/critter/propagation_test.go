package critter

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"critter/internal/mpi"
)

// Propagation tests: what each rank's path-frequency table holds after each
// kind of propagation point. The tables are compared as text — one
// "name/p1=count" entry per nonzero kernel, sorted — so a literal pins every
// id of every rank.

// freqString renders a PathFreqs map canonically.
func freqString(freqs map[Key]int64) string {
	parts := make([]string, 0, len(freqs))
	for k, v := range freqs {
		parts = append(parts, fmt.Sprintf("%s/%d=%d", k.Name, k.P1, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// pathFreqsLog collects, per step and rank, the canonical table text.
type pathFreqsLog struct {
	mu    sync.Mutex
	steps [][]string
	ranks int
}

func (l *pathFreqsLog) note(step, rank int, p *Profiler) {
	s := freqString(p.PathFreqs())
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.steps) <= step {
		l.steps = append(l.steps, make([]string, l.ranks))
	}
	l.steps[step][rank] = s
}

// TestOnlinePathFreqsPinned runs a 4-rank online program through every
// propagation path — the internal allreduce of world and sub-communicator
// collectives, Isend/Recv/Wait, the combined Sendrecv exchange, blocking
// Send/Recv — twice over, so the second pass runs entirely on recycled
// buffers, and compares every rank's PathFreqs() after every step against
// literals recorded before tables had a single owner (at the copy-on-write
// implementation this PR replaced).
func TestOnlinePathFreqsPinned(t *testing.T) {
	const ranks = 4
	log := &pathFreqsLog{ranks: ranks}
	w := mpi.NewWorld(ranks, testMachine(0.05), 7)
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
			// the sender never sees until its Wait adopts the reply.
			if r%2 == 0 {
				req := cc.Isend(r+1, 5, buf[:8])
				p.Kernel("c", 3, r, 1, 0, 2e5, func() {})
				req.Wait()
			} else {
				p.Kernel("d", 3, r, 1, 0, 1e5, func() {})
				cc.Recv(r-1, 5, buf[:8])
			}
			note()
			p.Kernel("e", 1+r, 1, 1, 0, 3e5*float64(ranks-r), func() {})
			cc.Sendrecv(r^1, 9, buf[:4], r^1, 9, out[:4])
			note()
			// Blocking pairs 1->2 and 3->0.
			if r%2 == 1 {
				cc.Send((r+1)%ranks, 11, buf[:2])
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
			log.mu.Lock()
			log.steps = append(log.steps, []string{freqString(freqs)})
			log.mu.Unlock()
		}
		p.Retire()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.steps) != len(pinnedPathFreqs) {
		t.Errorf("program logged %d steps, literals cover %d", len(log.steps), len(pinnedPathFreqs))
	} else {
		for s, got := range log.steps {
			for r := range got {
				if got[r] != pinnedPathFreqs[s][r] {
					t.Errorf("step %d rank %d:\n got %s\nwant %s", s, r, got[r], pinnedPathFreqs[s][r])
				}
			}
		}
	}
	if t.Failed() {
		var b strings.Builder
		for _, st := range log.steps {
			fmt.Fprintf(&b, "\t{\n")
			for _, s := range st {
				fmt.Fprintf(&b, "\t\t%q,\n", s)
			}
			fmt.Fprintf(&b, "\t},\n")
		}
		t.Logf("observed:\n%s", b.String())
	}
}

// TestP2PAdoptsPeerTableUnconditionally pins what point-to-point propagation
// does today, which is not what pathset.go's header says of K-tilde: Send,
// Recv, Sendrecv and Wait install the peer's table whether or not the peer's
// path is the longer one, so the two ends of a pair swap tables. Collectives
// adopt the maximal-ExecTime rank's table as Figure 2 (lines 64-65)
// prescribes. The swap feeds freqFor under the online policy, i.e. the skip
// decision; it is recorded under ROADMAP item 1 as a suspect for
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
	t.Run("send-recv", func(t *testing.T) {
		check(t, true, func(cc *Comm, buf []float64) {
			if cc.Rank() == 0 {
				cc.Send(1, 0, buf)
			} else {
				cc.Recv(0, 0, buf)
			}
		})
	})
	t.Run("isend-recv-wait", func(t *testing.T) {
		check(t, true, func(cc *Comm, buf []float64) {
			if cc.Rank() == 1 {
				cc.Isend(0, 0, buf).Wait()
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
			cc.Sendrecv(cc.Rank()^1, 0, buf, cc.Rank()^1, 0, make([]float64, 4))
		})
	})
}

// pinnedPathFreqs[step][rank] is the table TestOnlinePathFreqsPinned expects;
// the final entry is rank 0's GlobalPathFreqs.
var pinnedPathFreqs = [][]string{
	{
		"a/4=1 b/2=1",
		"a/4=2 b/2=1",
		"a/4=3 b/2=1",
		"a/4=4 b/2=1",
	},
	{
		"a/4=4 allreduce/16=1 b/2=1",
		"a/4=4 allreduce/16=1 b/2=1",
		"a/4=4 allreduce/16=1 b/2=1",
		"a/4=4 allreduce/16=1 b/2=1",
	},
	{
		"a/4=4 allreduce/16=1 b/2=1 d/3=1 recv/8=1",
		"a/4=4 allreduce/16=1 b/2=1 isend/8=1",
		"a/4=4 allreduce/16=1 b/2=1 d/3=1 recv/8=1",
		"a/4=4 allreduce/16=1 b/2=1 isend/8=1",
	},
	{
		"a/4=4 allreduce/16=1 b/2=1 e/2=1 isend/8=1 recv/4=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 d/3=1 e/1=1 recv/4=1 recv/8=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 e/4=1 isend/8=1 recv/4=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 d/3=1 e/3=1 recv/4=1 recv/8=1 send/4=1",
	},
	{
		"a/4=4 allreduce/16=1 b/2=1 d/3=1 e/3=1 recv/4=1 recv/8=1 send/2=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 e/4=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 d/3=1 e/1=1 recv/4=1 recv/8=1 send/2=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 e/2=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
	},
	{
		"a/4=4 allreduce/16=1 b/2=1 bcast/6=1 e/4=1 f/1=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 bcast/6=1 e/4=1 f/1=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
	},
	{
		"a/4=4 allreduce/16=1 b/2=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=4 allreduce/16=1 b/2=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
	},
	{
		"a/4=5 allreduce/16=1 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=6 allreduce/16=1 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=7 allreduce/16=1 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=8 allreduce/16=1 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
	},
	{
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 send/4=1",
	},
	{
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 d/3=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 recv/8=1 send/4=1",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=2 recv/2=1 recv/4=1 send/4=1",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 d/3=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=1 recv/8=1 send/4=1",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 f/3=1 isend/8=2 recv/2=1 recv/4=1 send/4=1",
	},
	{
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=2 f/3=1 isend/8=2 recv/2=1 recv/4=2 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 d/3=1 e/1=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 e/4=1 f/3=1 isend/8=2 recv/2=1 recv/4=2 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 d/3=1 e/2=1 e/3=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/4=2",
	},
	{
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 d/3=1 e/2=1 e/3=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/2=1 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=1 e/4=1 f/3=1 isend/8=2 recv/2=1 recv/2=1 recv/4=2 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 d/3=1 e/1=1 e/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/2=1 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=1 e/2=2 f/3=1 isend/8=2 recv/2=2 recv/4=2 send/4=2",
	},
	{
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=2 e/2=1 e/4=1 f/1=1 f/3=1 isend/8=2 recv/2=1 recv/2=1 recv/4=2 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=2 e/2=1 e/4=1 f/1=1 f/3=1 isend/8=2 recv/2=1 recv/2=1 recv/4=2 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=2 d/3=1 e/1=1 e/2=1 f/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/2=1 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=1 bcast/6=2 d/3=1 e/1=1 e/2=1 f/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/2=1 send/4=2",
	},
	{
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=2 bcast/6=2 d/3=1 e/1=1 e/2=1 f/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/2=1 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=2 bcast/6=2 d/3=1 e/1=1 e/2=1 f/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/2=1 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=2 bcast/6=2 d/3=1 e/1=1 e/2=1 f/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/2=1 send/4=2",
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=2 bcast/6=2 d/3=1 e/1=1 e/2=1 f/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/2=1 send/4=2",
	},
	{
		"a/4=8 allreduce/16=2 b/2=1 b/3=1 barrier/0=2 bcast/6=2 d/3=1 e/1=1 e/2=1 f/2=1 f/3=1 isend/8=1 recv/2=1 recv/4=2 recv/8=1 send/2=1 send/4=2",
	},
}
