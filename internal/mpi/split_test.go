package mpi

import (
	"slices"
	"testing"

	"critter/internal/sim"
)

// oracleSplit is the filter-sort-copy Split every member used to run for
// itself: keep the records of my color, order them by (key, parent rank),
// and copy their world ranks into a fresh group. records is indexed by
// parent rank.
func oracleSplit(records []splitSlot, color, myWorld int) (group []int, rank int) {
	type rec struct{ key, parentRank, worldRank int }
	var mine []rec
	for pr, r := range records {
		if r.color == color {
			mine = append(mine, rec{r.key, pr, r.worldRank})
		}
	}
	slices.SortFunc(mine, func(a, b rec) int {
		if a.key != b.key {
			return a.key - b.key
		}
		return a.parentRank - b.parentRank
	})
	group = make([]int, len(mine))
	rank = -1
	for i, e := range mine {
		group[i] = e.worldRank
		if e.worldRank == myWorld {
			rank = i
		}
	}
	return group, rank
}

// splitSeen is what one world rank observed of one Split.
type splitSeen struct {
	nc        *Comm
	parentCtx uint64
	seq       uint64
}

// TestSplitMatchesOracle: over random worlds of 1-16 ranks, random colors
// (negative ones included) and repeated keys, every member's Split result —
// group, rank and context — equals the old per-member algorithm's, split from
// a parent whose comm ranks are not its world ranks; the members of one color
// share one group array whose capacity ends with the group; and SplitAs on a
// Dup, fed that Dup's own Split, agrees with it down to the round key of the
// next collective on each.
func TestSplitMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(sim.Mix(seed, 0x5b11))
		p := 1 + rng.Intn(16)
		colors, keys := make([]int, p), make([]int, p)
		for r := range colors {
			colors[r] = rng.Intn(5) - 2 // -2..2: about two in five undefined
			keys[r] = rng.Intn(3)       // repeated keys: ties break by parent rank
		}
		seen := make([]splitSeen, p)
		w := NewWorld(p, quietMachine(), seed)
		err := w.Run(func(c *Comm) {
			// The parent reverses the world order, so parent rank and world
			// rank differ and the tie-break must use the parent's.
			parent := c.Split(0, p-1-c.Rank())
			me := c.WorldRank()
			seen[me].parentCtx, seen[me].seq = parent.ctx, parent.collSeq
			seen[me].nc = parent.Split(colors[me], keys[me])

			d := parent.Dup()
			twin := *d // the same Dup at the same sequence number
			viaSplit := twin.Split(colors[me], keys[me])
			viaAs := d.SplitAs(viaSplit, colors[me])
			if (viaSplit == nil) != (viaAs == nil) {
				t.Errorf("seed %d rank %d: Split gave %v, SplitAs %v", seed, me, viaSplit, viaAs)
				return
			}
			if (roundKey{d.ctx, d.collSeq}) != (roundKey{twin.ctx, twin.collSeq}) {
				t.Errorf("seed %d rank %d: after SplitAs the Dup's next round is %v, after Split %v",
					seed, me, roundKey{d.ctx, d.collSeq}, roundKey{twin.ctx, twin.collSeq})
			}
			if viaSplit == nil {
				return
			}
			if !slices.Equal(viaAs.Group(), viaSplit.Group()) || viaAs.Rank() != viaSplit.Rank() ||
				viaAs.ctx != viaSplit.ctx || viaAs.collSeq != viaSplit.collSeq {
				t.Errorf("seed %d rank %d: SplitAs gave group %v rank %d ctx %x seq %d, Split %v %d %x %d",
					seed, me, viaAs.Group(), viaAs.Rank(), viaAs.ctx, viaAs.collSeq,
					viaSplit.Group(), viaSplit.Rank(), viaSplit.ctx, viaSplit.collSeq)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// The parent's records, indexed by parent rank (world rank p-1-i).
		records := make([]splitSlot, p)
		for pr := range records {
			wr := p - 1 - pr
			records[pr] = splitSlot{color: colors[wr], key: keys[wr], worldRank: wr}
		}
		backing := map[int]*int{}
		for wr, s := range seen {
			color := colors[wr]
			if color < 0 {
				if s.nc != nil {
					t.Errorf("seed %d rank %d: color %d gave a communicator", seed, wr, color)
				}
				continue
			}
			group, rank := oracleSplit(records, color, wr)
			ctx := sim.Mix(s.parentCtx, s.seq, uint64(color)+0x51b7, uint64(group[0])+1)
			if !slices.Equal(s.nc.Group(), group) || s.nc.Rank() != rank || s.nc.ctx != ctx {
				t.Errorf("seed %d rank %d (color %d key %d): group %v rank %d ctx %x, oracle %v %d %x",
					seed, wr, color, keys[wr], s.nc.Group(), s.nc.Rank(), s.nc.ctx, group, rank, ctx)
			}
			if g := s.nc.Group(); cap(g) != len(g) {
				t.Errorf("seed %d rank %d: group capacity %d past its length %d", seed, wr, cap(g), len(g))
			}
			first := &s.nc.Group()[0]
			if b, ok := backing[color]; !ok {
				backing[color] = first
			} else if b != first {
				t.Errorf("seed %d rank %d: color %d's members hold different group arrays", seed, wr, color)
			}
		}
	}
}

// TestSplitAsNil: SplitAs of a nil sibling (a negative color) is nil and
// still takes the sequence number the skipped Split round would have.
func TestSplitAsNil(t *testing.T) {
	run(t, 2, func(c *Comm) {
		d := c.Dup()
		before := d.collSeq
		if nc := d.SplitAs(nil, -1); nc != nil {
			t.Errorf("SplitAs(nil) = %v, want nil", nc)
		}
		if d.collSeq != before+1 {
			t.Errorf("SplitAs(nil) moved the sequence from %d to %d, want %d", before, d.collSeq, before+1)
		}
	})
}

// TestWorldGroupIsShared: every rank's world communicator reports the group
// 0..P-1, and all of them read one backing array, as the members of a split
// communicator do, so a world holds one world-sized group, not one per rank.
func TestWorldGroupIsShared(t *testing.T) {
	const p = 6
	groups := make([][]int, p)
	run(t, p, func(c *Comm) { groups[c.Rank()] = c.Group() })
	for r, g := range groups {
		if len(g) != p {
			t.Fatalf("rank %d: world group %v, want %d ranks", r, g, p)
		}
		for i, v := range g {
			if v != i {
				t.Fatalf("rank %d: world group %v, want 0..%d", r, g, p-1)
			}
		}
		if &g[0] != &groups[0][0] {
			t.Errorf("rank %d's world group is its own array, want rank 0's", r)
		}
	}
}

// TestRepeatedSplitSharesGroups: a world that splits its ranks into rows the
// same way twice, freeing the first communicators in between, hands the
// second round the group array of the first, and a row of the second round
// reads the same ranks as its twin of the first. A round with other keys
// gets an array of its own.
func TestRepeatedSplitSharesGroups(t *testing.T) {
	const p = 6
	first, again, other := make([][]int, p), make([][]int, p), make([][]int, p)
	run(t, p, func(c *Comm) {
		row := c.Split(c.Rank()/3, c.Rank())
		first[c.Rank()] = row.Group()
		row.Free()
		again[c.Rank()] = c.Split(c.Rank()/3, c.Rank()).Group()
		other[c.Rank()] = c.Split(c.Rank()/3, -c.Rank()).Group()
	})
	for r := range p {
		if !slices.Equal(again[r], first[r]) || &again[r][0] != &first[r][0] {
			t.Errorf("rank %d: the repeated split gave %v in its own array, want %v in the first round's", r, again[r], first[r])
		}
		if &other[r][0] == &first[r][0] {
			t.Errorf("rank %d: a split with other keys shares the first round's array", r)
		}
	}
}
