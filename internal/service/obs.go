package service

// The scheduler's instrument set: every counter, gauge, and histogram it
// registers on its obs.Registry, plus the callback gauges that sample
// scheduler state at snapshot time. Centralizing the registrations keeps
// metric names in one place — the catalog below is the one the README's
// Observability section documents and scripts/service-smoke.sh asserts on.

import (
	"maps"
	"slices"

	"critter/internal/obs"
	"critter/internal/store"
)

// jobDurationBuckets are the job_duration_seconds histogram bounds: tuning
// jobs span quick CI smoke runs (tens of milliseconds) to full-scale
// studies (minutes).
var jobDurationBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 25, 125}

// schedMetrics holds the scheduler's registered instruments. Hot-path
// cells are plain fields; state-derived readings (queue depth, store
// size) are callback gauges registered in newSchedMetrics.
type schedMetrics struct {
	reg *obs.Registry

	jobsSubmitted *obs.Counter
	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	jobsCanceled  *obs.Counter
	queueRejected *obs.Counter
	jobDuration   *obs.Histogram

	dedupCoalesced *obs.Counter
	memoHits       *obs.Counter
	memoMisses     *obs.Counter
	memoEvictions  *obs.Counter

	sseLagged  *obs.Counter
	sseDropped *obs.Counter

	storeCompactions    *obs.Counter
	storeCompactDropped *obs.Counter
	storeCompactBytes   *obs.Counter

	kernelsExecuted *obs.CounterVec
	kernelsSkipped  *obs.CounterVec
	kernelsMemoized *obs.CounterVec
}

// newSchedMetrics registers the scheduler's instrument set on reg. The
// callback gauges close over s and take s.mu (and execution locks, in the
// scheduler's lock order) when sampled; callers must not snapshot the
// registry while holding scheduler locks.
func newSchedMetrics(s *Scheduler, reg *obs.Registry) *schedMetrics {
	m := &schedMetrics{
		reg: reg,

		jobsSubmitted: reg.Counter("jobs_submitted_total", "Accepted job submissions, coalesced and memoized ones included."),
		jobsCompleted: reg.Counter("jobs_completed_total", "Jobs that reached the done state."),
		jobsFailed:    reg.Counter("jobs_failed_total", "Jobs that reached the failed state."),
		jobsCanceled:  reg.Counter("jobs_canceled_total", "Jobs that reached the canceled state."),
		queueRejected: reg.Counter("queue_rejections_total", "Submissions rejected because the queue was full (HTTP 429)."),
		jobDuration:   reg.Histogram("job_duration_seconds", "Wall time from job start to terminal state.", jobDurationBuckets...),

		dedupCoalesced: reg.Counter("dedup_coalesced_total", "Submissions coalesced onto an identical in-flight execution."),
		memoHits:       reg.Counter("memo_hits_total", "Submissions answered from a memoized finished job."),
		memoMisses:     reg.Counter("memo_misses_total", "Submissions that found no usable memo entry and executed."),
		memoEvictions:  reg.Counter("memo_evictions_total", "Memo entries dropped because history evicted their job (Config.MaxHistory)."),

		sseLagged:  reg.Counter("sse_lagged_total", "SSE subscribers that lost events to backpressure (lagged events sent)."),
		sseDropped: reg.Counter("sse_dropped_events_total", "Events dropped across all lagged SSE subscribers."),

		storeCompactions:    reg.Counter("store_compactions_total", "Durable-store log compactions."),
		storeCompactDropped: reg.Counter("store_compact_records_dropped_total", "Stale record versions discarded by compactions."),
		storeCompactBytes:   reg.Counter("store_compact_bytes_reclaimed_total", "Write-ahead log bytes reclaimed by compactions."),

		kernelsExecuted: reg.CounterVec("kernels_executed_total", "Kernels actually executed by finished sweeps.", "workload"),
		kernelsSkipped:  reg.CounterVec("kernels_skipped_total", "Kernels skipped by selective execution in finished sweeps.", "workload"),
		kernelsMemoized: reg.CounterVec("kernels_memoized_total", "Skipped kernels whose decision was replayed from a profiler's per-kernel decision cache (subset of kernels_skipped_total).", "workload"),
	}

	reg.GaugeFunc("queue_depth", "Jobs waiting in the bounded queue.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.pending))
	})
	reg.GaugeFunc("jobs_running", "Jobs executing on this process's runners.", func() float64 {
		return float64(s.countRunning())
	})
	reg.GaugeFunc("tuner_runs", "Tuner executions started by this process's runners.", func() float64 {
		return float64(s.TunerRuns())
	})
	reg.GaugeFunc("memo_entries", "Finished jobs in the fingerprint index answering identical submissions.", func() float64 {
		return float64(len(s.memo()))
	})
	reg.GaugeVecFunc("memo_entry_hits", "Submissions satisfied per memo entry, in fingerprint order.", []string{"fingerprint"}, s.memo)
	if s.durable != nil {
		reg.GaugeFunc("store_log_bytes", "Durable-store write-ahead log size.", func() float64 {
			return float64(s.durable.LogSize())
		})
		reg.GaugeFunc("store_records", "Live records in the durable store.", func() float64 {
			return float64(s.durable.Len())
		})
	}
	return m
}

// jobFinished counts one job's terminal transition.
func (m *schedMetrics) jobFinished(state State) {
	switch state {
	case StateDone:
		m.jobsCompleted.Inc()
	case StateFailed:
		m.jobsFailed.Inc()
	case StateCanceled:
		m.jobsCanceled.Inc()
	}
}

// onCompact is the durable store's compaction callback: one log line plus
// the three compaction counters.
func (s *Scheduler) onCompact(cs store.CompactStats) {
	s.met.storeCompactions.Inc()
	s.met.storeCompactDropped.Add(int64(cs.RecordsDropped))
	s.met.storeCompactBytes.Add(cs.BytesReclaimed)
	s.logf("service: store compacted: kept %d records, dropped %d, reclaimed %d bytes (snapshot %d bytes)",
		cs.RecordsKept, cs.RecordsDropped, cs.BytesReclaimed, cs.SnapshotBytes)
}

// memo samples the memo — the fingerprint index's entries whose execution
// has finished — in fingerprint order, each valued by the submissions it
// answered.
func (s *Scheduler) memo() []obs.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []obs.Sample
	for _, fp := range slices.Sorted(maps.Keys(s.index)) {
		j := s.index[fp]
		j.exec.mu.Lock()
		done := j.exec.lc.state.terminal()
		j.exec.mu.Unlock()
		if done {
			out = append(out, obs.Sample{Labels: []string{fp}, Value: float64(j.hits)})
		}
	}
	return out
}

// countRunning tallies jobs in the running state. A follower counts as its
// execution does.
func (s *Scheduler) countRunning() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		x := j.exec
		x.mu.Lock()
		if x.lc.state == StateRunning {
			n++
		}
		x.mu.Unlock()
	}
	return n
}
