package critter

import (
	"critter/internal/channel"
	"critter/internal/mpi"
	"critter/internal/stats"
)

// aggregateEager implements the aggregate_statistics step of Figure 2: after
// a blocking collective on communicator c, kernels that are locally
// predictable but not yet globally propagated are nominated, their models
// are merged across the sub-communicator, and their coverage is extended by
// the communicator's channel. Once a kernel's coverage composes into a
// cartesian basis of the full grid, every rank owns the identical merged
// model and the kernel is switched off everywhere.
func (p *Profiler) aggregateEager(c *Comm) {
	if !c.chOK || c.user.Size() <= 1 {
		return
	}
	ch := c.ch
	// Most rounds nominate nothing, so the map is made on first use.
	var nominate map[Key]stats.Welford
	for id := range p.k {
		ks := &p.k[id]
		if !ks.seen || ks.propagated {
			continue
		}
		// Only the rank-local live samples are pooled: every rank shares
		// the same prior, which pooling would count once per rank.
		w := ks.live
		if w.Count() < 2 || !w.Predictable(p.opts.Eps, 1) {
			continue
		}
		if ks.coverage.Contains(ch) {
			continue
		}
		if _, ok := channel.Combine(ks.coverage, ch); !ok {
			continue
		}
		if nominate == nil {
			nominate = make(map[Key]stats.Welford)
		}
		nominate[p.tab.KeyOf(uint32(id))] = w
	}
	merged := mpi.AllreduceMsg(c.internal, nominate, mergeNominations)
	if len(merged) == 0 {
		return
	}
	for key, w := range merged {
		_, ks := p.lookup(key)
		ks.adoptPooled(w)
		if cov, ok := channel.Combine(ks.coverage, ch); ok {
			ks.coverage = cov
		}
		if ks.coverage.CoversWorld(p.psize) {
			ks.propagated = true
		}
	}
}

// mergeNominations folds nomination maps pairwise: the union of keys, with
// Welford models merged so every rank ends up with the pooled sample set.
// Pure: inputs are never mutated, and when one side is empty the other is
// the result itself (a merge into an empty model is that model, bit for bit).
func mergeNominations(ma, mb map[Key]stats.Welford) map[Key]stats.Welford {
	if len(mb) == 0 {
		return ma
	}
	if len(ma) == 0 {
		return mb
	}
	out := make(map[Key]stats.Welford, len(ma)+len(mb))
	for k, w := range ma {
		out[k] = w
	}
	for k, w := range mb {
		acc := out[k]
		acc.Merge(w)
		out[k] = acc
	}
	return out
}

// PropagatedKernels returns how many kernels the eager policy has fully
// propagated (and therefore switched off) on this rank.
func (p *Profiler) PropagatedKernels() int {
	n := 0
	for i := range p.k {
		if p.k[i].propagated {
			n++
		}
	}
	return n
}
