package critter

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"critter/internal/mpi"
)

const overflowMsg = "critter: kernel count overflows int32"

// TestCountsRefuseToWrap: a path count or a local frequency standing at
// math.MaxInt32 panics with a named message on the next appearance of its
// kernel instead of wrapping negative, and inside a world the panic is the
// world's error.
func TestCountsRefuseToWrap(t *testing.T) {
	recovered := func(f func()) (msg string) {
		defer func() {
			if e := recover(); e != nil {
				msg = fmt.Sprint(e)
			}
		}()
		f()
		return ""
	}
	var k kernelCounts
	k.incr(3)
	k.vals[3] = math.MaxInt32 - 1
	if msg := recovered(func() { k.incr(3) }); msg != "" || k.get(3) != math.MaxInt32 {
		t.Fatalf("counting up to MaxInt32: panic %q, count %d", msg, k.get(3))
	}
	if msg := recovered(func() { k.incr(3) }); msg != overflowMsg {
		t.Errorf("counting past MaxInt32: panic %q, want %q", msg, overflowMsg)
	}
	if k.get(3) != math.MaxInt32 {
		t.Errorf("the refused count moved to %d", k.get(3))
	}

	// The same through the profiler: either count at its limit fails the
	// world at the kernel's next interception.
	for _, which := range []string{"path", "local"} {
		w := mpi.NewWorld(2, testMachine(0.05), 5)
		err := w.Run(func(c *mpi.Comm) {
			p, _ := New(c, Options{Policy: Online, Eps: 0})
			p.Kernel("gemm", 8, 8, 8, 0, 512, func() {})
			if c.Rank() == 1 {
				id := p.intern(CompKey("gemm", 8, 8, 8, 0))
				if which == "path" {
					p.path.Kernels.vals[id] = math.MaxInt32
				} else {
					p.at(id).localFreq = math.MaxInt32
				}
			}
			p.Kernel("gemm", 8, 8, 8, 0, 512, func() {})
			p.Report()
		})
		if err == nil || !strings.Contains(err.Error(), overflowMsg) {
			t.Errorf("%s count at MaxInt32: Run error %v, want the overflow panic", which, err)
		}
	}
}

// TestProfilerStateLayout pins the size of the two structures a rank holds
// one of per kernel: the record and the archived model. A field added to
// either must justify its bytes times every kernel of every rank, and
// change the number here. The eager policy's coverage lives beside the
// records, so a sweep under any other policy never grows it.
func TestProfilerStateLayout(t *testing.T) {
	if n := unsafe.Sizeof(kernelStats{}); n != 64 {
		t.Errorf("kernelStats is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(archivedModel{}); n != 32 {
		t.Errorf("archivedModel is %d bytes, want 32", n)
	}
	for _, pol := range []Policy{Online, Eager} {
		runProfiled(t, 4, 0.05, Options{Policy: pol, Eps: 0.5}, func(p *Profiler, cc *Comm) {
			for cfg := range 3 {
				p.StartConfig(true)
				for i := range 20 {
					p.Kernel("gemm", 8, 8, 8+cfg, 0, 512, func() {})
					if i%4 == 0 {
						p.Kernel("trsm", 8, 8, 0, 0, 256, func() {})
					}
					cc.Barrier()
				}
			}
			if pol == Eager && len(p.cover) != len(p.k) {
				t.Errorf("eager: %d coverage channels for %d records", len(p.cover), len(p.k))
			}
			if pol != Eager && (len(p.cover) != 0 || cap(p.cover) != 0) {
				t.Errorf("%s: the eager coverage holds %d of capacity %d", pol, len(p.cover), cap(p.cover))
			}
		})
	}
}
