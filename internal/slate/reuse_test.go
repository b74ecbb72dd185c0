package slate

import (
	"runtime"
	"slices"
	"testing"

	"critter/internal/critter"
	"critter/internal/grid"
	"critter/internal/mpi"
	"critter/internal/sim"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestRepeatedConfigurationReusesBookkeeping runs one Cholesky (with
// lookahead) and one QR configuration several times each on a reference's
// world, which is cost-only, as a sweep runs its configurations one after
// another on one world. From the second run on, the grid header is the one
// the run before released, and the factorization — its broadcast marks,
// Cholesky's panel ring and QR's V/T pairs included — allocates nothing at
// all. Only the factorization call of each later run is counted, and the
// least of those counts is the one checked: anything the code rebuilt per
// run would be in every one of them.
func TestRepeatedConfigurationReusesBookkeeping(t *testing.T) {
	const pr, pc, runs = 4, 2, 4
	chol := CholConfig{N: 64, NB: 8, Lookahead: 1, PR: pr, PC: pc}
	qr := QRConfig{M: 64, N: 32, NB: 8, IB: 4, PR: pr, PC: pc}
	names := [2]string{"cholesky", "qr"}
	var mallocs [2][runs]uint64
	var before, after runtime.MemStats
	w := mpi.NewWorld(pr*pc, sim.DefaultMachine(), 11)
	if err := w.Run(func(c *mpi.Comm) {
		p, cc := critter.NewReference(c)
		var headers [2]*grid.Grid2D
		for run := range runs {
			for lib := range names {
				g := grid.New2D(cc, pr, pc)
				if run == 0 {
					headers[lib] = g
				} else if g != headers[lib] {
					t.Errorf("rank %d, %s, run %d: the grid header is not the one the first run released", c.Rank(), names[lib], run+1)
				}
				var a *TileMatrix
				if lib == 0 {
					a = NewTileMatrix(g, chol.N/chol.NB, chol.N/chol.NB, chol.NB)
				} else {
					a = NewTileMatrix(g, qr.M/qr.NB, qr.N/qr.NB, qr.NB)
				}
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				c.Barrier()
				if lib == 0 {
					Cholesky(p, a, chol)
				} else {
					QR(p, a, qr)
				}
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
					mallocs[lib][run] = after.Mallocs - before.Mallocs
				}
				c.Barrier()
				a.Release()
				g.Release()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for lib, name := range names {
		t.Logf("%s: mallocs per run %v", name, mallocs[lib])
		if n := slices.Min(mallocs[lib][1:]); n != 0 && !raceEnabled {
			t.Errorf("%s: every run after the first allocated, at least %d objects, want none", name, n)
		}
	}
}
