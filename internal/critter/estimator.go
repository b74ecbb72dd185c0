package critter

import (
	"sort"

	"critter/internal/stats"
)

// The prediction model. The paper's statistical machinery — the
// per-signature confidence-interval models that drive shouldExecute and the
// family extrapolator of Section VIII — is one concrete type, ciMean, owned
// one per rank by the Profiler. Its learned state exports to a Profile
// (profile.go) and a prior Profile can warm-start a new run.

// estimatorName identifies the model in serialized profiles
// (Profile.Estimator); persisted profiles carry it, so it never changes.
const estimatorName = "ci-mean"

// ciMean is the paper's prediction model: a Welford mean/variance
// accumulator per kernel signature, the normal-theory confidence interval of
// Section III-A for predictability, and (optionally) the per-routine-family
// log-log fit of extrapolate.go. A loaded prior forms a read-only layer
// under the live accumulators: queries merge the two, observations go to
// the live layer only, and reset clears only the live layer. Not safe for
// concurrent use; each rank owns its model exclusively.
//
// The hot methods (observe, estimate, predictable) are indexed by the
// profiler's dense kernel id, with the Key passed alongside so a cold id
// falls back to the keyed maps.
type ciMean struct {
	// fitFamilies enables the family-model line fitting of Section VIII
	// (Options.Extrapolate).
	fitFamilies bool
	cur         map[Key]*stats.Welford
	prior       map[Key]stats.Welford
	families    map[string]*familyModel
	// pooled marks keys whose live accumulator was installed by eager
	// cross-rank aggregation: it holds other ranks' samples, so profile
	// exports flag it (KernelModel.Pooled) and same-run rank merges keep
	// the best copy instead of summing the shared samples p times.
	pooled map[Key]bool
	// priorProfile re-seeds the family models on reset (Welford priors stay
	// resident in prior and need no re-seeding).
	priorProfile *Profile

	// lastKey/lastW short-circuit the cur-map lookup for back-to-back
	// queries of the same signature (tight kernel loops), skipping the Key
	// hash. Invalidated whenever an entry pointer may change (reset,
	// importWelford).
	lastKey   Key
	lastW     *stats.Welford
	lastValid bool

	// slabs allocates live accumulators in fixed-size chunks that survive
	// reset: configurations churn through disjoint signature sets (tile
	// sizes change), and per-key heap allocations would repay that churn
	// every configuration. Chunks never move, so map-held pointers stay
	// valid until reset drops them.
	slabs    [][]stats.Welford
	slabUsed int // accumulators handed out from the current layout

	// byID is the dense id-indexed view of cur: byID[id] caches the live
	// accumulator of the signature the profiler interned as id, so the
	// steady-state observe/estimate/predictable path skips the Key hash
	// entirely. Ids are only stable within a configuration, so reset —
	// called exactly when the profiler re-keys its id space — drops the
	// whole view (the pointers would otherwise dangle into recycled slab
	// slots).
	byID []*stats.Welford
}

// wByID returns the dense-cached live accumulator for id, or nil when the
// id is cold (never observed this configuration).
func (e *ciMean) wByID(id uint32) *stats.Welford {
	if int(id) < len(e.byID) {
		return e.byID[id]
	}
	return nil
}

// cacheID associates id with live accumulator w.
func (e *ciMean) cacheID(id uint32, w *stats.Welford) {
	if n := int(id) + 1; n > len(e.byID) {
		if n <= cap(e.byID) {
			e.byID = e.byID[:n]
		} else {
			c := cap(e.byID) * 2
			if c < n {
				c = n
			}
			if c < 64 {
				c = 64
			}
			grown := make([]*stats.Welford, n, c)
			copy(grown, e.byID)
			e.byID = grown
		}
	}
	e.byID[id] = w
}

// observe incorporates one measured duration dt for the kernel: one Welford
// update, then — when extrapolation is on — a predictable computation-kernel
// model contributes its (flops, mean) point to its routine family. flops is
// the kernel's operation count (0 for communication kernels) and eps the
// active confidence tolerance, which gates the family feeding.
func (e *ciMean) observe(id uint32, key Key, flops, dt, eps float64) {
	w := e.wByID(id)
	if w == nil {
		w = e.curOf(key)
		if w == nil {
			w = e.newWelford()
			e.cur[key] = w
			e.lastKey, e.lastW, e.lastValid = key, w, true
		}
		e.cacheID(id, w)
	}
	w.Add(dt)
	if !e.fitFamilies || key.Kind != KindComp || flops <= 0 {
		return
	}
	m := e.model(key)
	if m.Count() < 2 || !m.Predictable(eps, 1) {
		return
	}
	fm, ok := e.families[key.Name]
	if !ok {
		fm = newFamilyModel()
		e.families[key.Name] = fm
	}
	fm.add(flops, m.Mean())
}

// estimate returns the modeled duration charged for a skipped kernel (0 when
// it has never been observed). With a prior layer loaded the query must
// merge it, so it goes through model.
func (e *ciMean) estimate(id uint32, key Key) float64 {
	if e.prior == nil {
		if w := e.wByID(id); w != nil {
			return w.Mean()
		}
	}
	m := e.model(key)
	return m.Mean()
}

// predictable reports whether the kernel's model meets tolerance eps given
// the execution-count credit freq along the current sub-critical path; same
// prior-layer rule as estimate.
func (e *ciMean) predictable(id uint32, key Key, eps float64, freq int64) bool {
	if e.prior == nil {
		if w := e.wByID(id); w != nil {
			return w.Predictable(eps, freq)
		}
	}
	m := e.model(key)
	return m.Predictable(eps, freq)
}

// slabChunk is the accumulator chunk size (amortizes chunk headers without
// holding large dead spans alive).
const slabChunk = 128

// adoptArena takes over a retired model's accumulator slabs and its emptied
// live map (KernelMemo's arena recycling). Slab contents need not be zeroed —
// newWelford zeroes each accumulator on handout — so donation and adoption
// are both O(chunks). Only a freshly constructed model may adopt (live map
// entries point into the current slabs).
func (e *ciMean) adoptArena(slabs [][]stats.Welford, cur map[Key]*stats.Welford) {
	if len(e.slabs) == 0 && e.slabUsed == 0 {
		e.slabs, e.cur = slabs, cur
	}
}

// releaseArena hands off the slabs and the live map — emptied, its buckets
// kept, so the adopter does not regrow it entry by entry — and severs them
// from the (now retired) model.
func (e *ciMean) releaseArena() ([][]stats.Welford, map[Key]*stats.Welford) {
	s, cur := e.slabs, e.cur
	clear(cur)
	e.slabs = nil
	e.slabUsed = 0
	e.cur = nil
	e.byID = nil
	e.lastValid = false
	return s, cur
}

// newWelford hands out a zeroed accumulator from the slab.
func (e *ciMean) newWelford() *stats.Welford {
	chunk, idx := e.slabUsed/slabChunk, e.slabUsed%slabChunk
	if chunk == len(e.slabs) {
		e.slabs = append(e.slabs, make([]stats.Welford, slabChunk))
	}
	e.slabUsed++
	w := &e.slabs[chunk][idx]
	*w = stats.Welford{}
	return w
}

// curOf returns the live accumulator for key (nil when none), through the
// one-entry lookup cache.
func (e *ciMean) curOf(key Key) *stats.Welford {
	if e.lastValid && key == e.lastKey {
		return e.lastW
	}
	w := e.cur[key]
	e.lastKey, e.lastW, e.lastValid = key, w, true
	return w
}

// newCIMean returns an empty model; fitFamilies is Options.Extrapolate.
func newCIMean(fitFamilies bool) *ciMean {
	return &ciMean{
		fitFamilies: fitFamilies,
		cur:         make(map[Key]*stats.Welford),
		families:    make(map[string]*familyModel),
	}
}

// model returns the combined (prior + live) accumulator for key: the keyed
// path behind cold ids and the report accessors. With no prior layer the
// live accumulator is returned as-is.
func (e *ciMean) model(key Key) stats.Welford {
	cw := e.curOf(key)
	if e.prior == nil {
		if cw != nil {
			return *cw
		}
		return stats.Welford{}
	}
	w, hasPrior := e.prior[key]
	if !hasPrior {
		if cw != nil {
			return *cw
		}
		return stats.Welford{}
	}
	if cw != nil {
		w.Merge(*cw)
	}
	return w
}

// extrapolate returns a cross-signature estimate for a computation kernel
// whose own model is not yet trustworthy — the family-model prediction of
// extrapolate.go — or ok == false when extrapolation is off or the fit is
// untrustworthy.
func (e *ciMean) extrapolate(key Key, flops, eps float64) (float64, bool) {
	if !e.fitFamilies || key.Kind != KindComp || flops <= 0 {
		return 0, false
	}
	fm, ok := e.families[key.Name]
	if !ok {
		return 0, false
	}
	return fm.predict(flops, eps)
}

// reset discards everything learned since construction (between tuning
// configurations); the prior layer and prior-seeded family points survive.
func (e *ciMean) reset() {
	clear(e.cur)
	e.families = make(map[string]*familyModel)
	e.pooled = nil
	e.lastValid = false
	e.slabUsed = 0 // all map-held slab pointers were just dropped
	clear(e.byID)
	e.byID = e.byID[:0] // ids are about to be re-keyed; drop the dense view
	if e.priorProfile != nil {
		e.seedFamilies(e.priorProfile)
	}
}

// exportWelford returns key's rank-local live accumulator for the eager
// policy's cross-rank pooling, and whether the key has one. The prior is
// shared by every rank, so pooling it here would count it once per rank; it
// stays layered underneath and enters every query through model() instead.
func (e *ciMean) exportWelford(key Key) (stats.Welford, bool) {
	w, ok := e.cur[key]
	if !ok {
		return stats.Welford{}, false
	}
	return *w, true
}

// importWelford installs a pooled accumulator as the kernel's live layer
// (any prior stays layered underneath, counted once). The key is marked
// pooled — the model now holds other ranks' samples too, which profile
// exports flag so same-run rank merges deduplicate the shared copies — and
// the cached pointers to the replaced accumulator are dropped.
func (e *ciMean) importWelford(id uint32, key Key, w stats.Welford) {
	cw := w
	e.cur[key] = &cw
	e.lastValid = false
	if int(id) < len(e.byID) {
		e.byID[id] = nil
	}
	if e.pooled == nil {
		e.pooled = make(map[Key]bool)
	}
	e.pooled[key] = true
}

// familiesInto merges the live family models into dst (allocated on first
// need, returned): every family point currently fitted is included — points
// are snapshots keyed by flops, so re-exporting prior-seeded ones is lossless
// — and a family dst already holds keeps its points where the live fit has
// none at that flops count.
func (e *ciMean) familiesInto(dst map[string]Family) map[string]Family {
	for name, fm := range e.families {
		if len(fm.points) == 0 {
			continue
		}
		pts := make([]FamilyPoint, 0, len(fm.points))
		for _, pt := range fm.points {
			pts = append(pts, FamilyPoint{Flops: pt.flops, Mean: pt.mean})
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Flops < pts[j].Flops })
		if dst == nil {
			dst = make(map[string]Family, len(e.families))
		}
		if fam, ok := dst[name]; ok {
			dst[name] = Family{Points: mergePoints(fam.Points, pts)}
		} else {
			dst[name] = Family{Points: pts}
		}
	}
	return dst
}

// loadPrior warm-starts the model: kernel models become the read-only
// prior layer; family points seed the extrapolator. Both survive reset.
func (e *ciMean) loadPrior(prior *Profile) {
	e.priorProfile = prior
	e.prior = make(map[Key]stats.Welford, len(prior.Kernels))
	for key, km := range prior.Kernels {
		e.prior[key] = stats.WelfordFromMoments(km.Count, km.Mean, km.M2)
	}
	e.seedFamilies(prior)
}

// seedFamilies installs the prior's family points into fresh models.
func (e *ciMean) seedFamilies(prior *Profile) {
	for name, fam := range prior.Families {
		fm, ok := e.families[name]
		if !ok {
			fm = newFamilyModel()
			e.families[name] = fm
		}
		for _, pt := range fam.Points {
			fm.add(pt.Flops, pt.Mean)
		}
	}
}
