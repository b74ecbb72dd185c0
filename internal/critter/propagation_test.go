package critter

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"critter/internal/mpi"
	"critter/internal/obs"
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

// comparePinned reports every entry of got that differs from want, and on
// any mismatch logs what was observed in literal form.
func comparePinned(t *testing.T, what string, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: program logged %d steps, literals cover %d", what, len(got), len(want))
	} else {
		for s := range got {
			if len(got[s]) != len(want[s]) {
				t.Errorf("%s: step %d logged %d entries, literal has %d", what, s, len(got[s]), len(want[s]))
				continue
			}
			for r := range got[s] {
				if got[s][r] != want[s][r] {
					t.Errorf("%s: step %d rank %d:\n got %s\nwant %s", what, s, r, got[s][r], want[s][r])
				}
			}
		}
	}
	if t.Failed() {
		var b strings.Builder
		for _, st := range got {
			fmt.Fprintf(&b, "\t{\n")
			for _, s := range st {
				fmt.Fprintf(&b, "\t\t%q,\n", s)
			}
			fmt.Fprintf(&b, "\t},\n")
		}
		t.Logf("%s observed:\n%s", what, b.String())
	}
}

// TestOnlinePathFreqsPinned runs a 4-rank online program through every
// propagation path — the internal allreduce of world and sub-communicator
// collectives, Isend/Recv/Wait, the combined Sendrecv exchange, blocking
// Send/Recv — twice over, so the second pass runs entirely on recycled
// buffers, and compares every rank's PathFreqs() after every step against
// literals recorded before tables had a single owner (at the copy-on-write
// implementation that single ownership replaced). It also pins each rank's
// path ExecTime and CommTime after every step, which a change to the order
// of adoption against charging moves while leaving the counts alone, and
// rank 0's stream of round events, which critter-trace's per-op table reads.
func TestOnlinePathFreqsPinned(t *testing.T) {
	const ranks = 4
	log := &pathFreqsLog{ranks: ranks}
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
	t.Run("freqs", func(t *testing.T) { comparePinned(t, "PathFreqs", log.steps, pinnedPathFreqs) })
	t.Run("times", func(t *testing.T) { comparePinned(t, "path times", log.times, pinnedPathTimes) })
	t.Run("rounds", func(t *testing.T) {
		if ring.Dropped() != 0 {
			t.Fatalf("trace ring dropped %d events", ring.Dropped())
		}
		var rounds []string
		for _, ev := range ring.Events() {
			if ev.Kind == obs.KindRound {
				rounds = append(rounds, roundString(ev))
			}
		}
		comparePinned(t, "rank 0 rounds", [][]string{rounds}, [][]string{pinnedRounds})
	})
}

// TestP2PAdoptsPeerTableUnconditionally pins what point-to-point propagation
// does today, which is not what pathset.go's header says of K-tilde: Send,
// Recv, Sendrecv and Wait install the peer's table whether or not the peer's
// path is the longer one, so the two ends of a pair swap tables. Collectives
// adopt the maximal-ExecTime rank's table as Figure 2 (lines 64-65)
// prescribes. The swap feeds freqFor under the online policy, i.e. the skip
// decision; it is recorded under ROADMAP item 2(b) as a suspect for
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

// pinnedPathTimes[step][rank] is the path's ExecTime and CommTime, as float
// bits, that TestOnlinePathFreqsPinned expects after each step. Recorded
// before the interception protocol moved into one method; a change to the
// order of adoption against charging moves them on purpose.
var pinnedPathTimes = [][]string{
	{
		"exec=3f14f0bea6db4b17 comm=0",
		"exec=3f308ac57463c5a9 comm=0",
		"exec=3f3dbbdabd7a22a9 comm=0",
		"exec=3f45aee3ae52e288 comm=0",
	},
	{
		"exec=3f45d334c56c2b0c comm=3ed2288b8ca441c0",
		"exec=3f45d334c56c2b0c comm=3ed2288b8ca441c0",
		"exec=3f45d334c56c2b0c comm=3ed2288b8ca441c0",
		"exec=3f45d334c56c2b0c comm=3ed2288b8ca441c0",
	},
	{
		"exec=3f4996d2027e8cc6 comm=3eda8c075cff3880",
		"exec=3f4841c3c8f28ffa comm=3ed2288b8ca441c0",
		"exec=3f49ec4913fe38e6 comm=3eda8c075cff3880",
		"exec=3f47fd5603e1105a comm=3ed2288b8ca441c0",
	},
	{
		"exec=3f50a763a951751f comm=3ee1a459cede43ce",
		"exec=3f515c88ebe5de40 comm=3f0b0dbec644b514",
		"exec=3f5027c3d76bf824 comm=3ee1bd845fc06960",
		"exec=3f51f045874c7dd2 comm=3f1ebfcb8a0067fb",
	},
	{
		"exec=3f51f045874c7dd2 comm=3f1ebfcb8a0067fb",
		"exec=3f5164be901216c8 comm=3f0c14734bcbc60f",
		"exec=3f51f525599849b0 comm=3f1710a63e491192",
		"exec=3f51f7ea89db0edb comm=3f1f3a1bb2e9788d",
	},
	{
		"exec=3f52adf4f5b8eecb comm=3f1f42755d9135db",
		"exec=3f52adf4f5b8eecb comm=3f1f42755d9135db",
		"exec=3f5332f4f99309cc comm=3f1fcb477d2fa9b5",
		"exec=3f5332f4f99309cc comm=3f1fcb477d2fa9b5",
	},
	{
		"exec=3f53436c3ee11da7 comm=3f20695de90873b2",
		"exec=3f53436c3ee11da7 comm=3f20695de90873b2",
		"exec=3f53436c3ee11da7 comm=3f20695de90873b2",
		"exec=3f53436c3ee11da7 comm=3f20695de90873b2",
	},
	{
		"exec=3f5494a2ed6744f5 comm=3f20695de90873b2",
		"exec=3f57674b5772d585 comm=3f20695de90873b2",
		"exec=3f5aaebf930d37ce comm=3f20695de90873b2",
		"exec=3f5e179a3ecacc5f comm=3f20695de90873b2",
	},
	{
		"exec=3f5e27fc3f65b7f1 comm=3f20ec6deddfd042",
		"exec=3f5e27fc3f65b7f1 comm=3f20ec6deddfd042",
		"exec=3f5e27fc3f65b7f1 comm=3f20ec6deddfd042",
		"exec=3f5e27fc3f65b7f1 comm=3f20ec6deddfd042",
	},
	{
		"exec=3f6017f59af41316 comm=3f212f89cc62a7fa",
		"exec=3f5f4c1913443541 comm=3f20ec6deddfd042",
		"exec=3f6004a2bf6feee2 comm=3f212f89cc62a7fa",
		"exec=3f5f512bba807f93 comm=3f20ec6deddfd042",
	},
	{
		"exec=3f6253ec207f27d5 comm=3f2175435603b942",
		"exec=3f631b2e8c742c8d comm=3f2de96a155404c9",
		"exec=3f619db3b7a071b0 comm=3f2174ea6b4d89bf",
		"exec=3f624a552ac5f1b8 comm=3f2c3f019da58a48",
	},
	{
		"exec=3f6253ec207f27d5 comm=3f2c3f019da58a48",
		"exec=3f631f9cf0b4cd87 comm=3f2e3050595e1464",
		"exec=3f63de38d563dea2 comm=3f350d0752279308",
		"exec=3f6258161832440a comm=3f2c81a118d74d92",
	},
	{
		"exec=3f63c5ef28f73de7 comm=3f2e76f649178c14",
		"exec=3f63c5ef28f73de7 comm=3f2e76f649178c14",
		"exec=3f643f6d757ba284 comm=3f352fd7702ebf04",
		"exec=3f643f6d757ba284 comm=3f352fd7702ebf04",
	},
	{
		"exec=3f6447ddeafbe34e comm=3f35735b1c30c554",
		"exec=3f6447ddeafbe34e comm=3f35735b1c30c554",
		"exec=3f6447ddeafbe34e comm=3f35735b1c30c554",
		"exec=3f6447ddeafbe34e comm=3f35735b1c30c554",
	},
}

// pinnedRounds is rank 0's round-event stream in TestOnlinePathFreqsPinned:
// op, virtual-clock bits after the round's adoption, memoized flag.
var pinnedRounds = []string{
	"allreduce 3f3601adefd72cd3 0",
	"isend 3f364a501e09bdda 0",
	"wait 3f3dd18a982e814d 0",
	"sendrecv 3f468f4143ba2380 0",
	"recv 3f46a0ba9c3b9e1e 0",
	"bcast 3f4944046d105b66 0",
	"barrier 3f495459a7827522 0",
	"allreduce 3f4c17b58f2aeb74 0",
	"isend 3f4c38799060c298 0",
	"wait 3f50242bbeb2cf88 0",
	"sendrecv 3f5493619894d6dc 0",
	"recv 3f549c18c9c8f905 0",
	"bcast 3f55f128c0a847b9 0",
	"barrier 3f55f9fd7e9f76af 0",
}
