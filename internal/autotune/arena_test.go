package autotune

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/obs"
)

// runOn runs every sweep of a tuner in turn on one arena: what runJobs does
// on a single worker, with the arena chosen by the caller instead of taken
// from a set.
func runOn(ctx context.Context, pool *mpi.BufPool, tu Tuner) (*Result, error) {
	res, jobs := tu.build(&progressSink{})
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		errs[i] = j.run(ctx, pool)
	}
	return res, errors.Join(errs...)
}

// TestArenasKeepWhatTheirRunsGaveBack pins the set's promises: an arena
// given back is the one the next worker takes, on whichever goroutine, and
// collections do not take it away (its lifetime is the owner's, so whether a
// run starts warm never depends on the collector); a nil set keeps nothing;
// and runs through a set leave their worker count of arenas in it,
// the same ones run after run.
func TestArenasKeepWhatTheirRunsGaveBack(t *testing.T) {
	var a Arenas
	pool := a.take()
	a.give(pool)
	runtime.GC()
	runtime.GC()
	taken := make(chan *mpi.BufPool)
	go func() { taken <- a.take() }()
	if got := <-taken; got != pool {
		t.Fatal("another goroutine took a new arena, not the one given back")
	}

	var none *Arenas
	none.give(pool)
	if none.take() == pool {
		t.Fatal("a nil set handed back an arena")
	}

	tu := Tuner{
		Study: CapitalCholesky(QuickScale()), EpsList: []float64{0.5, 0.25}, Policies: []critter.Policy{critter.Online},
		Machine: quickMachine(), Seed: 42, Workers: 2,
	}
	var kept []*mpi.BufPool
	for run := 0; run < 2; run++ {
		if _, err := a.Run(context.Background(), tu, nil); err != nil {
			t.Fatal(err)
		}
		if len(a.free) != 2 {
			t.Fatalf("run %d left %d arenas in the set, want one per worker (2)", run+1, len(a.free))
		}
		if run == 0 {
			kept = append(kept, a.free...)
		} else if !(a.free[0] == kept[0] && a.free[1] == kept[1] || a.free[0] == kept[1] && a.free[1] == kept[0]) {
			t.Error("the second run left other arenas than the first")
		}
	}
}

// cancelAfter cancels its context when the configs-th configuration of the
// sweep ends, so the run stops at the next configuration boundary.
type cancelAfter struct {
	configs int64
	seen    atomic.Int64
	cancel  context.CancelFunc
}

func (c *cancelAfter) Emit(ev obs.Event) {
	if ev.Kind == obs.KindConfig && ev.Phase == obs.PhaseEnd && c.seen.Add(1) == c.configs {
		c.cancel()
	}
}

// TestArenaOutlivesRuns is the property behind pooling the executor's
// arenas across runs: on one arena and one worker, slate-chol at quick
// scale, then at default scale (same study name, other world size), then a
// run cancelled mid-sweep, then the four quick exhaustive golden grids —
// and every result equals, byte for byte, its golden envelope or what a
// fresh arena computes.
func TestArenaOutlivesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a default-scale sweep and four golden grids")
	}
	ctx := context.Background()
	pool := mpi.NewBufPool()

	for _, tu := range []Tuner{
		{Study: SlateCholesky(QuickScale()), EpsList: []float64{0.125}, Policies: []critter.Policy{critter.Online}},
		{Study: SlateCholesky(DefaultScale()), EpsList: []float64{0.125}, Policies: []critter.Policy{critter.Online}},
	} {
		tu.Machine, tu.Seed = quickMachine(), 42
		got, err := runOn(ctx, pool, tu)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runOn(ctx, mpi.NewBufPool(), tu)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (world of %d): the reused arena's result differs from a fresh arena's", tu.Study.Name, tu.Study.WorldSize)
		}
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	_, err := runOn(cctx, pool, Tuner{
		Study: SlateQR(QuickScale()), EpsList: []float64{0.125}, Policies: []critter.Policy{critter.Online},
		Machine: quickMachine(), Seed: 42, Tracer: &cancelAfter{configs: 5, cancel: cancel},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}

	golden := []string{"capital", "slate-chol", "candmc", "slate-qr"}
	for i, st := range quickStudies() {
		eps := []float64{0.5, 0.125}
		if st.Name == "slate-qr" {
			eps = []float64{0.125}
		}
		res, err := runOn(ctx, pool, Tuner{Study: st, EpsList: eps, Machine: quickMachine(), Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "envelope_"+golden[i]+"_exhaustive.golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(append(got, '\n')) != string(want) {
			t.Errorf("%s on the reused arena diverges from its golden envelope", st.Name)
		}
	}
}
