package critter

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"critter/internal/stats"
)

// Persistent kernel profiles: everything a profiling run learns — kernel
// statistics, fitted family models, critical-path frequencies — captured as
// a versioned, JSON-serializable artifact. A Profile exported from one run
// (Profiler.ExportProfile, Tuner results, critter-tune -profile-out)
// warm-starts a later run of the same or a related problem
// (Options.Prior, Tuner.Prior, autotune.WarmStart, -profile-in). Across
// scales only the family extrapolator transfers usefully: kernel signatures
// change with the problem size, but a family's log-log fit predicts any
// flops count within its extrapolation range.

// ProfileSchemaVersion identifies the JSON layout of Profile. Version 1 is
// the initial layout: kernel moments, family points, path frequencies.
const ProfileSchemaVersion = 1

// KernelModel is one kernel signature's serialized duration model: the
// Welford moments (count, mean, sum of squared deviations) that fully
// determine its confidence interval.
type KernelModel struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	M2    float64 `json:"m2"`
	// Pooled marks a model installed by the eager policy's cross-rank
	// aggregation: every rank of the run holds a copy of the same pooled
	// sample set, so same-run rank merges (Profiler.GlobalProfile) keep
	// the highest-count copy instead of summing the shared samples once
	// per rank. The dedup is deliberately conservative: while coverage is
	// still partial, different sub-communicators hold disjoint pools that
	// are indistinguishable from shared copies, and keeping one copy
	// under-counts rather than multiplying shared samples by the world
	// size — a weaker warm-start prior, never a spuriously confident one.
	// Merges across runs (MergeProfiles) pool normally — their sample
	// sets are disjoint.
	Pooled bool `json:"pooled,omitempty"`
}

// FamilyPoint is one (flops, mean-duration) sample of a routine family's
// regression model.
type FamilyPoint struct {
	Flops float64 `json:"flops"`
	Mean  float64 `json:"mean"`
}

// Family is one routine family's serialized extrapolation model: its fitted
// points in ascending flops order (the fit itself is recomputed on load).
type Family struct {
	Points []FamilyPoint `json:"points"`
}

// Profile is the serializable state of a profiling run. Kernels and
// PathFreqs key by the stable text encoding of Key (Key.MarshalText), so
// profiles written by one version remain readable by later ones.
type Profile struct {
	SchemaVersion int    `json:"schemaVersion"`
	Estimator     string `json:"estimator,omitempty"`

	// Kernels holds the per-signature duration models (the set K).
	Kernels map[Key]KernelModel `json:"kernels,omitempty"`
	// Families holds the per-routine-name extrapolation models.
	Families map[string]Family `json:"families,omitempty"`
	// PathFreqs holds critical-path execution counts (the table K-tilde),
	// merged by max across runs.
	PathFreqs map[Key]int64 `json:"pathFreqs,omitempty"`
}

// Samples returns the total observation count across all kernel models.
func (p *Profile) Samples() int64 {
	var n int64
	for _, km := range p.Kernels {
		n += km.Count
	}
	return n
}

// FamilyPointCount returns the total number of fitted family points.
func (p *Profile) FamilyPointCount() int {
	n := 0
	for _, fam := range p.Families {
		n += len(fam.Points)
	}
	return n
}

// Merge folds o into p: kernel models pool their samples (Welford merge),
// families take the union of points with o winning on equal flops, and path
// frequencies merge by max. Merging the export of a run that was
// warm-started from p itself is safe: exports exclude prior samples, so
// nothing is counted twice. o may be nil (no-op).
func (p *Profile) Merge(o *Profile) { p.merge(o, false) }

// merge implements Merge. sameRun marks a merge of one run's per-rank
// exports, where kernel models flagged Pooled are copies of a shared
// sample set: the highest-count copy wins instead of re-pooling.
func (p *Profile) merge(o *Profile, sameRun bool) {
	if o == nil {
		return
	}
	if p.Estimator == "" {
		p.Estimator = o.Estimator
	}
	for key, om := range o.Kernels {
		if p.Kernels == nil {
			p.Kernels = make(map[Key]KernelModel, len(o.Kernels))
		}
		p.mergeKernel(key, om, sameRun)
	}
	for name, ofam := range o.Families {
		if p.Families == nil {
			p.Families = make(map[string]Family, len(o.Families))
		}
		fam, ok := p.Families[name]
		if !ok {
			pts := make([]FamilyPoint, len(ofam.Points))
			copy(pts, ofam.Points)
			p.Families[name] = Family{Points: pts}
			continue
		}
		p.Families[name] = Family{Points: mergePoints(fam.Points, ofam.Points)}
	}
	for key, n := range o.PathFreqs {
		if p.PathFreqs == nil {
			p.PathFreqs = make(map[Key]int64, len(o.PathFreqs))
		}
		p.PathFreqs[key] = max(p.PathFreqs[key], n)
	}
}

// mergeKernel pools om into key's model in p.Kernels (which must not be nil),
// the earlier samples first; under sameRun, shared pooled copies deduplicate
// (see merge).
func (p *Profile) mergeKernel(key Key, om KernelModel, sameRun bool) {
	km, ok := p.Kernels[key]
	if !ok {
		p.Kernels[key] = om
		return
	}
	if sameRun && (km.Pooled || om.Pooled) {
		// Shared pooled copies: keep the most informed one. (A rank
		// that kept observing after the pool has the pooled set plus
		// its newest samples, so a higher count is strictly better.)
		if om.Count >= km.Count {
			p.Kernels[key] = om
		}
		return
	}
	p.Kernels[key] = poolModels(km, om)
}

// poolModels is the Welford merge of two kernel models, km's samples first.
func poolModels(km, om KernelModel) KernelModel {
	w := welfordOf(km)
	w.Merge(welfordOf(om))
	return KernelModel{
		Count: w.Count(), Mean: w.Mean(), M2: w.M2(),
		Pooled: km.Pooled || om.Pooled,
	}
}

// mergePoints unions two ascending-flops point lists; b wins on equal flops.
func mergePoints(a, b []FamilyPoint) []FamilyPoint {
	out := make([]FamilyPoint, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Flops < b[j].Flops:
			out = append(out, a[i])
			i++
		case a[i].Flops > b[j].Flops:
			out = append(out, b[j])
			j++
		default:
			out = append(out, b[j])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// welfordOf reconstructs a kernel model's accumulator.
func welfordOf(km KernelModel) stats.Welford {
	return stats.WelfordFromMoments(km.Count, km.Mean, km.M2)
}

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	if p == nil {
		return nil
	}
	out := &Profile{SchemaVersion: p.SchemaVersion, Estimator: p.Estimator}
	out.Merge(p)
	return out
}

// MergeProfiles merges b into a copy of a (either may be nil) and returns
// the result, leaving both inputs untouched.
func MergeProfiles(a, b *Profile) *Profile {
	if a == nil {
		return b.Clone()
	}
	out := a.Clone()
	out.Merge(b)
	return out
}

// MergeInto returns what MergeProfiles(acc, p) returns, built in p's maps
// instead of in a copy of acc: for every key acc's model is pooled first
// and p's second, families union with p winning on equal flops, and path
// frequencies take the max. acc is only read. p is consumed: the result
// is p itself (a copy of acc when p is nil), so the caller hands over a
// profile nothing else reads. acc and p must be distinct.
func MergeInto(acc, p *Profile) *Profile {
	if p == nil {
		return acc.Clone()
	}
	// MergeProfiles copies p's tables into empty ones, which floors a path
	// frequency at 0 and turns a family's nil points into an empty list;
	// p's own entries get the same here.
	for key, n := range p.PathFreqs {
		if n < 0 {
			p.PathFreqs[key] = 0
		}
	}
	for name, fam := range p.Families {
		if fam.Points == nil {
			p.Families[name] = Family{Points: []FamilyPoint{}}
		}
	}
	if acc == nil {
		return p
	}
	p.SchemaVersion = acc.SchemaVersion
	if acc.Estimator != "" {
		p.Estimator = acc.Estimator
	}
	for key, km := range acc.Kernels {
		if p.Kernels == nil {
			p.Kernels = make(map[Key]KernelModel, len(acc.Kernels))
		}
		if om, ok := p.Kernels[key]; ok {
			km = poolModels(km, om)
		}
		p.Kernels[key] = km
	}
	for name, afam := range acc.Families {
		if p.Families == nil {
			p.Families = make(map[string]Family, len(acc.Families))
		}
		if fam, ok := p.Families[name]; ok {
			p.Families[name] = Family{Points: mergePoints(afam.Points, fam.Points)}
			continue
		}
		own := make([]FamilyPoint, len(afam.Points))
		copy(own, afam.Points)
		p.Families[name] = Family{Points: own}
	}
	for key, n := range acc.PathFreqs {
		if p.PathFreqs == nil {
			p.PathFreqs = make(map[Key]int64, len(acc.PathFreqs))
		}
		p.PathFreqs[key] = max(p.PathFreqs[key], n)
	}
	return p
}

// Encode serializes the profile as indented JSON with the current schema
// version stamped in: a ProfileEncoder's compact bytes through json.Indent,
// which is what json.MarshalIndent writes. The stamp goes on a shallow copy:
// p is not modified, and its maps are only read.
func (p *Profile) Encode() ([]byte, error) {
	c := *p
	c.SchemaVersion = ProfileSchemaVersion
	// Sized for a typical profile, so the compact bytes take one
	// allocation: about 88 bytes a kernel model with its key, 32 a path
	// frequency, 48 a family point.
	size := 64 + 88*len(c.Kernels) + 32*len(c.PathFreqs) + 48*c.FamilyPointCount()
	var enc ProfileEncoder
	compact, err := enc.Append(make([]byte, 0, size), &c)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Grow(2 * len(compact))
	if err := json.Indent(&out, compact, "", "  "); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// DecodeProfile parses a serialized profile, validating the schema version
// and rejecting entries that could poison a warm-started run (non-positive
// counts, non-finite moments).
func DecodeProfile(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("critter: bad profile: %w", err)
	}
	if p.SchemaVersion < 1 || p.SchemaVersion > ProfileSchemaVersion {
		return nil, fmt.Errorf("critter: unsupported profile schema version %d (this build reads <= %d)",
			p.SchemaVersion, ProfileSchemaVersion)
	}
	for key, km := range p.Kernels {
		if km.Count < 1 || !finite(km.Mean) || !finite(km.M2) || km.Mean < 0 || km.M2 < 0 {
			return nil, fmt.Errorf("critter: bad profile: kernel %s has invalid moments %+v", key, km)
		}
	}
	for name, fam := range p.Families {
		for i, pt := range fam.Points {
			if !finite(pt.Flops) || !finite(pt.Mean) || pt.Flops <= 0 || pt.Mean <= 0 {
				return nil, fmt.Errorf("critter: bad profile: family %q has invalid point %+v", name, pt)
			}
			// Strictly ascending flops is a structural invariant: the
			// point-merge algorithm and the family docs both rely on it.
			if i > 0 && pt.Flops <= fam.Points[i-1].Flops {
				return nil, fmt.Errorf("critter: bad profile: family %q points not strictly ascending by flops at index %d", name, i)
			}
		}
	}
	for key, n := range p.PathFreqs {
		if n < 1 {
			return nil, fmt.Errorf("critter: bad profile: path frequency %d for %s", n, key)
		}
	}
	return &p, nil
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
