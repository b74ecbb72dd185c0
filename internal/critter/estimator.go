package critter

import (
	"sort"

	"critter/internal/stats"
)

// The prediction model. The paper's statistical machinery is two things. The
// per-signature confidence-interval model that drives shouldExecute is part
// of the kernel's record (kernelStats, profiler.go): the live accumulator by
// value, over the prior's moments for that signature. What is not
// per-signature — the family extrapolator of Section VIII and the loaded
// prior profile — is ciMean, one per rank. The learned state exports to a
// Profile (profile.go) and a prior Profile can warm-start a new run.

// estimatorName identifies the model in serialized profiles
// (Profile.Estimator); persisted profiles carry it, so it never changes.
const estimatorName = "ci-mean"

// model returns the kernel's combined (prior + live) accumulator: the Welford
// mean/variance whose normal-theory confidence interval (Section III-A)
// decides predictability and whose mean is charged for a skip. The prior is a
// read-only layer under the live samples — shared by every rank, so eager
// pooling and profile exports carry the live layer only and the prior enters
// each query here, counted once.
func (ks *kernelStats) model() stats.Welford {
	w := ks.prior
	w.Merge(ks.live)
	return w
}

// adoptPooled installs an accumulator pooled across ranks by the eager policy
// as the kernel's live layer. The record now holds other ranks' samples too,
// which profile exports flag (KernelModel.Pooled) so same-run rank merges keep
// the best copy instead of summing the shared samples p times.
func (ks *kernelStats) adoptPooled(w stats.Welford) {
	ks.live, ks.pooled = w, true
}

// ciMean is the part of the paper's prediction model that is not
// per-signature: the per-routine-family log-log fits of extrapolate.go (when
// enabled) and the prior a run was warm-started from. reset clears only what
// was learned live. Not safe for concurrent use; each rank owns its model
// exclusively.
type ciMean struct {
	// fitFamilies enables the family-model line fitting of Section VIII
	// (Options.Extrapolate).
	fitFamilies bool
	families    map[string]*familyModel
	// prior is the profile the run was warm-started from (nil: none): a
	// record takes its signature's moments from it when the kernel is first
	// seen (priorOf), and reset re-seeds the family models from it.
	prior *Profile
}

// newCIMean returns an empty model; fitFamilies is Options.Extrapolate.
func newCIMean(fitFamilies bool) *ciMean {
	return &ciMean{fitFamilies: fitFamilies, families: make(map[string]*familyModel)}
}

// priorOf returns the prior's accumulator for key, empty when there is no
// prior or it never saw the signature.
func (e *ciMean) priorOf(key Key) stats.Welford {
	if e.prior == nil {
		return stats.Welford{}
	}
	km := e.prior.Kernels[key]
	return stats.WelfordFromMoments(km.Count, km.Mean, km.M2)
}

// observe offers a just-sampled computation kernel to its routine family:
// once the kernel's own model is predictable at tolerance eps it contributes
// its (flops, mean) point. name is the routine and flops its operation count.
func (e *ciMean) observe(name kernelName, flops float64, ks *kernelStats, eps float64) {
	if !e.fitFamilies || flops <= 0 {
		return
	}
	m := ks.model()
	if m.Count() < 2 || !m.Predictable(eps, 1) {
		return
	}
	fm, ok := e.families[name.String()]
	if !ok {
		fm = newFamilyModel()
		e.families[name.String()] = fm
	}
	fm.add(flops, m.Mean())
}

// extrapolate returns a cross-signature estimate for a computation kernel of
// routine name whose own model is not yet trustworthy — the family-model
// prediction of extrapolate.go — or ok == false when extrapolation is off or
// the fit is untrustworthy.
func (e *ciMean) extrapolate(name kernelName, flops, eps float64) (float64, bool) {
	if !e.fitFamilies || flops <= 0 {
		return 0, false
	}
	fm, ok := e.families[name.String()]
	if !ok {
		return 0, false
	}
	return fm.predict(flops, eps)
}

// reset discards the family points learned since construction (between
// tuning configurations); the prior-seeded ones are put back. The map is
// cleared in place: nothing reads its order.
func (e *ciMean) reset() {
	clear(e.families)
	if e.prior != nil {
		e.seedFamilies(e.prior)
	}
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

// loadPrior warm-starts the model: the prior's kernel models become the
// read-only layer under every record that names them; its family points seed
// the extrapolator. Both survive reset.
func (e *ciMean) loadPrior(prior *Profile) {
	e.prior = prior
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
