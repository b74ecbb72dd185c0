package service

// Durable persistence over internal/store: what survives a restart, and
// exactly how a scheduler rebuilds itself from the log.
//
// Two record kinds live in the store:
//
//   - "job": one record per finished job, written at the terminal
//     transition — the status snapshot, the normalized request, and the
//     result envelope (shared by deduped jobs, duplicated in the log so
//     replay needs no cross-record resolution).
//   - "profile": the merged per-workload profile, rewritten after every
//     run that learned something (latest record wins, by store
//     semantics).
//
// Restart semantics, by design and covered by TestRestartDurability:
// finished jobs replay with their envelopes and a single terminal event
// (the full event history is not persisted); replayed profiles warm-start
// new jobs exactly as if the process had never died; queued-but-unstarted
// and still-running jobs are NOT persisted and are simply gone after a
// restart — the client that submitted them observes a 404 and resubmits.
// Rejecting rather than resuming keeps the log append-only at terminal
// transitions and makes the replay path deterministic: nothing in the
// store ever describes work in progress. Job IDs continue after the
// highest replayed ID, so replayed and new jobs never collide.
//
// The store keeps an index in memory, not the records: their bytes stay
// in its files. Replay reads every live record back once, at New, and a
// record that cannot be read is logged and skipped like a corrupt one.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/store"
)

// Durable record kinds.
const (
	kindJob     = "job"
	kindProfile = "profile"
)

// jobRecord is the persisted form of one finished job, collected under
// its execution's lock and written outside it. Envelope is the job's
// result as encoded at its terminal transition, embedded as is, so the
// record holds the bytes GET /result serves.
type jobRecord struct {
	Status   JobStatus       `json:"status"`
	Request  JobRequest      `json:"request"`
	Envelope json.RawMessage `json:"envelope,omitempty"`
}

// persistJobs appends one durable record per finished job. Persistence
// failures are logged, not fatal: the scheduler keeps serving from memory.
func (s *Scheduler) persistJobs(recs []jobRecord) {
	if s.durable == nil {
		return
	}
	for _, jr := range recs {
		id := jr.Status.ID
		data, err := json.Marshal(jr)
		if err != nil {
			s.logf("service: marshal job record %s: %v", id, err)
			continue
		}
		err = s.durable.Append(store.Record{Kind: kindJob, Key: id, At: jr.Status.Finished, Data: data})
		if err != nil {
			s.logf("service: persist job %s: %v", id, err)
		}
	}
}

// replayDurable rebuilds jobs, profiles, and the memo entries of the
// fingerprint index from the durable store. Called from New before any
// runner starts, so no locking is needed. Individual corrupt records are
// skipped with a log line; replay never fails the scheduler.
func (s *Scheduler) replayDurable() {
	if s.durable == nil {
		return
	}
	recs, err := s.durable.Records()
	if err != nil {
		s.logf("service: replay: %v", err)
	}
	for _, rec := range recs {
		switch rec.Kind {
		case kindProfile:
			p, err := critter.DecodeProfile(rec.Data)
			if err != nil {
				s.logf("service: replay profile %s: %v", rec.Key, err)
				continue
			}
			s.store.Merge(rec.Key, p)
			s.store.markPersisted(rec.Key, rec.At)
		case kindJob:
			if err := s.replayJob(rec.Data); err != nil {
				s.logf("service: replay job %s: %v", rec.Key, err)
			}
		default:
			s.logf("service: replay: unknown record kind %q (key %s)", rec.Kind, rec.Key)
		}
	}
}

// replayJob restores one finished job from its durable record.
func (s *Scheduler) replayJob(data []byte) error {
	var jr jobRecord
	if err := json.Unmarshal(data, &jr); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	st := jr.Status
	if st.ID == "" || !st.State.terminal() {
		return fmt.Errorf("record is not a finished job (id %q, state %q)", st.ID, st.State)
	}
	if _, exists := s.jobs[st.ID]; exists {
		return fmt.Errorf("duplicate job record %s", st.ID)
	}

	var jerr error
	if st.Error != "" {
		jerr = errors.New(st.Error)
	}
	// The record's envelope bytes are the job's result once
	// DecodeEnvelope accepts them; the decoded struct is only the check.
	env := jr.Envelope
	if len(env) > 0 {
		if _, err := autotune.DecodeEnvelope(env); err != nil {
			s.logf("service: replay envelope of %s: %v", st.ID, err)
			env = nil
		}
	}
	// The event history is not persisted; a replayed job exposes its one
	// terminal event (state names double as terminal event types).
	x := &execution{
		lc: lifecycle{
			state: st.State, err: jerr, envelope: env, warmApplied: st.WarmStart,
			sweepsDone: st.SweepsDone, sweepsTotal: st.SweepsTotal,
			started: st.Started, finished: st.Finished,
		},
		events: []Event{{Type: string(st.State), Done: st.SweepsDone, Total: st.SweepsTotal, Error: st.Error}},
	}
	j := &job{id: st.ID, exec: x, replay: &st}
	x.names = []*job{j}
	s.jobs[st.ID] = j
	s.order = append(s.order, st.ID)
	if n, ok := jobIDNumber(st.ID); ok && n > s.nextID {
		s.nextID = n
	}
	// Rebuild the memo: a replayed job backs future identical
	// submissions under the same conditions a live one would — warm start
	// off, finished clean, envelope intact. The last such job replayed for
	// a fingerprint wins.
	if st.State == StateDone && env != nil && st.Fingerprint != "" &&
		jr.Request.WarmStart != nil && !*jr.Request.WarmStart {
		s.index[st.Fingerprint] = j
	}
	return nil
}

// jobIDNumber extracts N from "job-N".
func jobIDNumber(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
