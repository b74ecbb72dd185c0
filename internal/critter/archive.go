package critter

import (
	"slices"

	"critter/internal/mpi"
)

// The per-configuration archive. StartConfig wipes the live model and the
// path-frequency table, so what a configuration learned is set aside first
// and ExportProfile covers the whole run, not just the current
// configuration. A sweep does this once per configuration evaluated, per
// profiler, per rank, and exports once — so the archive stays in the
// profiler's own currency, dense kernel ids, appended to two slabs, and is
// rekeyed by Key only when an export is actually asked for. A reference
// profiler (NewReference) keeps no per-kernel record and no path table, so
// it sets nothing aside and its export is empty: the sweep only ever reads
// its reports.

// archivedModel is one kernel's archived duration model under the dense id
// its segment's table gave it: KernelModel's fields with the id in what
// would be its padding, 32 bytes where an embedded KernelModel takes 40
// (foldModels builds the KernelModel).
type archivedModel struct {
	Count  int64
	Mean   float64
	M2     float64
	id     uint32
	Pooled bool
}

// archiveSeg is what was set aside while one kernel table was current: the
// models of the kernels this rank sampled (ids are world-wide and a rank sees
// a subset, so the list is sparse) and the path frequencies, dense by id.
// Both are ranges of the archive's slabs. Only the last segment ever grows,
// so its ranges end where the slabs end.
type archiveSeg struct {
	tab      *KernelTable
	mLo, mHi int // models[mLo:mHi]
	fLo, fHi int // freqs[fLo:fHi]
}

// archive is a profiler's set-aside state, in configuration order.
type archive struct {
	segs   []archiveSeg
	models []archivedModel
	// freqs is recycled without zeroing: whatever lies past its length is
	// stale, and growing into it clears what is exposed.
	freqs []int32
	// families holds the family models of the configurations archived so
	// far, already in export form (they are keyed by routine name, a
	// handful per run, and exist only under Options.Extrapolate).
	families map[string]Family
}

// lastFor returns the last segment when tab is still its table, nil when
// there is none or the table has changed.
func (a *archive) lastFor(tab *KernelTable) *archiveSeg {
	if n := len(a.segs); n > 0 && a.segs[n-1].tab == tab {
		return &a.segs[n-1]
	}
	return nil
}

// open starts a new segment for tab, empty of frequencies and holding the
// models from mLo on. The pointer is valid until the next open.
func (a *archive) open(tab *KernelTable, mLo int) *archiveSeg {
	a.segs = append(a.segs, archiveSeg{
		tab: tab,
		mLo: mLo, mHi: len(a.models),
		fLo: len(a.freqs), fHi: len(a.freqs),
	})
	return &a.segs[len(a.segs)-1]
}

// recycled returns the archive emptied for the next profiler to fill: slabs
// at length zero with their capacity kept, no table pinned.
func (a *archive) recycled() archive {
	clear(a.segs)
	return archive{segs: a.segs[:0], models: a.models[:0], freqs: a.freqs[:0]}
}

// archivePathFreqs max-merges the configuration's path frequency table into
// the archive before StartConfig resets the pathset: in place, id by id,
// while the kernel table is the one the last segment was filed under (every
// configuration of a study that keeps its statistics, and a-priori's second
// pass), into a new segment otherwise.
func (p *Profiler) archivePathFreqs() {
	vals := p.path.Kernels.vals
	n := len(vals)
	for n > 0 && vals[n-1] == 0 {
		n--
	}
	if n == 0 {
		return
	}
	a := &p.arch
	seg := a.lastFor(p.tab)
	if seg == nil {
		seg = a.open(p.tab, len(a.models))
	}
	if have := seg.fHi - seg.fLo; n > have {
		a.freqs = slices.Grow(a.freqs, n-have)[:seg.fLo+n]
		clear(a.freqs[seg.fHi:])
		seg.fHi = seg.fLo + n
	}
	dst := a.freqs[seg.fLo:seg.fHi]
	for id, v := range vals[:n] {
		dst[id] = max(dst[id], v)
	}
}

// archiveEstimator sets the model's live state aside; called only when the
// model is about to be reset, so no sample is ever archived twice. (Without a
// reset the live state persists and joins at export time instead.) Models are
// never merged into a segment that already holds some, even under an
// unchanged table — successive halving can evaluate one configuration last in
// a rung and first in the next, and the memo then hands the same table twice
// in a row: the two evaluations' samples must meet at export, in order,
// through the same Welford merge as any other two configurations'.
func (p *Profiler) archiveEstimator() {
	a := &p.arch
	lo := len(a.models)
	a.models = p.liveModels(a.models)
	if len(a.models) > lo {
		// A last segment without models starts at lo too: only it grows.
		if seg := a.lastFor(p.tab); seg != nil && seg.mHi == seg.mLo {
			seg.mHi = len(a.models)
		} else {
			a.open(p.tab, lo)
		}
	}
	a.families = p.est.familiesInto(a.families)
}

// liveModels appends the live accumulator of every record that has samples
// to dst under its id, in the order the rank touched them (ids are distinct,
// so no export sees it). Prior samples are not part of the live layer, so
// chaining runs via MergeProfiles never counts one twice.
func (p *Profiler) liveModels(dst []archivedModel) []archivedModel {
	for i := range p.k {
		ks := &p.k[i]
		if w := &ks.live; w.Count() > 0 {
			dst = append(dst, archivedModel{
				Count: w.Count(), Mean: w.Mean(), M2: w.M2(), id: ks.id, Pooled: ks.pooled,
			})
		}
	}
	return dst
}

// ExportProfile returns this rank's learned profile: everything archived
// across configuration resets, the live model state, and the path
// frequencies seen so far. Samples loaded from Options.Prior are excluded,
// so chaining runs via MergeProfiles never counts a sample twice.
func (p *Profiler) ExportProfile() *Profile {
	out := &Profile{SchemaVersion: ProfileSchemaVersion}
	p.exportInto(out)
	return out
}

// exportInto rekeys the archive into out, whose maps hold nothing (nil, or
// emptied for reuse): the segments in configuration order, then the live
// layer, a kernel that recurs meeting its earlier samples archive side first.
// A map with nothing to hold stays as it was, so a fresh Profile keeps nil
// maps where the run learned nothing.
func (p *Profiler) exportInto(out *Profile) {
	a := &p.arch
	out.Estimator = estimatorName
	// The live layer rides as one more run of models past the slab's end.
	archived := len(a.models)
	a.models = p.liveModels(a.models)
	// Size by entries, not by id range: the most any one configuration
	// holds bounds the distinct signatures from below and costs nothing to
	// know.
	most := len(a.models) - archived
	for _, s := range a.segs {
		most = max(most, s.mHi-s.mLo)
	}
	if most > 0 && out.Kernels == nil {
		out.Kernels = make(map[Key]KernelModel, most)
	}
	for _, s := range a.segs {
		out.foldModels(s.tab, a.models[s.mLo:s.mHi])
	}
	out.foldModels(p.tab, a.models[archived:])
	a.models = a.models[:archived]

	for name, fam := range a.families {
		if out.Families == nil {
			out.Families = make(map[string]Family, len(a.families))
		}
		out.Families[name] = Family{Points: slices.Clone(fam.Points)}
	}
	out.Families = p.est.familiesInto(out.Families)

	for _, s := range a.segs {
		out.foldFreqs(s.tab, a.freqs[s.fLo:s.fHi])
	}
	out.foldFreqs(p.tab, p.path.Kernels.vals)
}

// foldModels pools models, filed under tab's ids, into the profile.
func (p *Profile) foldModels(tab *KernelTable, models []archivedModel) {
	keys := tab.view()
	for _, m := range models {
		p.mergeKernel(keys[m.id], KernelModel{Count: m.Count, Mean: m.Mean, M2: m.M2, Pooled: m.Pooled}, false)
	}
}

// foldFreqs max-merges a frequency table dense by tab's ids into the
// profile.
func (p *Profile) foldFreqs(tab *KernelTable, freqs []int32) {
	nonzero := 0
	for _, v := range freqs {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		return
	}
	if p.PathFreqs == nil {
		p.PathFreqs = make(map[Key]int64, nonzero)
	}
	keys := tab.view()
	for id, v := range freqs {
		if v != 0 {
			p.PathFreqs[keys[id]] = max(p.PathFreqs[keys[id]], int64(v))
		}
	}
}

// exportMsg is one member's deposit in the export round: its profiler, which
// the round's finish reads while the member waits, and on the way back
// the folded profile.
type exportMsg struct {
	p    *Profiler
	root int // the comm rank that receives the result
	out  *Profile
}

// foldExports is the finish of the export round: the last arriver rekeys each
// member's archive in turn into one scratch profile and pools it into the
// single result, in comm-rank order — the fold every rank used to repeat over
// P gathered exports, done once with one export's worth of maps live at a
// time. The scratch is the memo's of the world's buffer pool (takeScratch),
// so a worker folds every sweep through one set of maps, cleared in place. It runs
// while every other member waits in the round, which is what lets it read
// their profilers and what forbids it to communicate.
func foldExports(members []exportMsg) {
	memo := members[0].p.memo
	out := &Profile{SchemaVersion: ProfileSchemaVersion}
	scratch := memo.takeScratch()
	for _, m := range members {
		m.p.exportInto(scratch)
		out.merge(scratch, true)
		clear(scratch.Kernels)
		clear(scratch.Families)
		clear(scratch.PathFreqs)
	}
	memo.giveScratch(scratch)
	members[members[0].root].out = out
}

// GlobalProfile merges every rank's exported profile into one artifact at
// root: the per-rank exports pooled in comm-rank order, kernel models
// flagged Pooled deduplicated instead of summed (see KernelModel.Pooled).
// Collective over the world communicator: every rank takes part in the
// round, and every rank but root returns nil.
func (p *Profiler) GlobalProfile(root int) *Profile {
	lane := mpi.LaneOf[exportMsg](p.world.user.World())
	return lane.Allreduce(p.world.internal, exportMsg{p: p, root: root}, foldExports).out
}
