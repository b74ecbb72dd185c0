package service

import (
	"sort"
	"sync"
	"time"

	"critter/internal/critter"
)

// ProfileStore accumulates the learned kernel profiles of completed jobs,
// keyed by workload name. Later jobs on the same workload warm-start from
// the merged prior, so a service that keeps tuning the same problems
// executes fewer and fewer kernels — the in-memory form of the
// transfer-learning loop that critter-tune's -profile-in/-profile-out pair
// runs through files.
//
// Merging goes through critter.MergeInto, which builds the merged
// profile in the one a job hands over and only reads the published one,
// so a profile handed out by Get is immutable: jobs holding it as their
// prior never observe later merges.
type ProfileStore struct {
	mu         sync.RWMutex
	byWorkload map[string]storedProfile
}

// storedProfile is one workload's record: its merged profile and when the
// scheduler last wrote that profile to its durable store (zero when never).
type storedProfile struct {
	profile   *critter.Profile
	persisted time.Time
}

// NewProfileStore returns an empty store.
func NewProfileStore() *ProfileStore {
	return &ProfileStore{byWorkload: make(map[string]storedProfile)}
}

// Get returns the merged profile accumulated for a workload, or nil when
// no job has contributed yet. The returned profile is never mutated by the
// store; it is safe to share across concurrently running jobs.
func (s *ProfileStore) Get(workload string) *critter.Profile {
	p, _ := s.get(workload)
	return p
}

// get returns a workload's record: its merged profile (nil when none) and
// its last durable write time.
func (s *ProfileStore) get(workload string) (*critter.Profile, time.Time) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.byWorkload[workload]
	return r.profile, r.persisted
}

// Merge folds p into the workload's accumulated profile. A nil p is a
// no-op, so callers can pass a failed sweep's absent export unconditionally.
// Merge takes ownership of p: the merged profile is built in p's maps and
// published as is, so the caller must not read or write p afterwards.
func (s *ProfileStore) Merge(workload string, p *critter.Profile) {
	if p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.byWorkload[workload]
	r.profile = critter.MergeInto(r.profile, p)
	s.byWorkload[workload] = r
}

// markPersisted records that a workload's profile was durably written at
// at; a workload without a profile is left out.
func (s *ProfileStore) markPersisted(workload string, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.byWorkload[workload]; ok {
		r.persisted = at
		s.byWorkload[workload] = r
	}
}

// Workloads returns the names with accumulated profiles, sorted.
func (s *ProfileStore) Workloads() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byWorkload))
	for name := range s.byWorkload {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
