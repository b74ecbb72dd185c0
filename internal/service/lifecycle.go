package service

// The job state machine. A job's lifecycle changes in exactly one place,
// next: a pure function from the current lifecycle and one proposed step
// to the lifecycle after it, or an error when the step is illegal there.
// The runners and cancellation propose steps; the dedup map, the memo,
// persistence and metrics observe what next returns.
//
//	state \ event  started  sweep            done, failed  canceled
//	queued         running  —                —             canceled
//	running        —        running, done+1  done, failed  canceled
//	done           —        —                —             —
//	failed         —        —                —             —
//	canceled       —        —                —             —
//
// A "queued" event is rejected in every state: a job is queued only at
// birth, so it starts at most once. A sweep past the job's total is
// rejected, and done needs an envelope.

import (
	"errors"
	"fmt"
	"time"
)

// lifecycle is everything about a job's execution that changes over its
// life. Every name on one execution reports the same lifecycle.
type lifecycle struct {
	state       State
	err         error
	envelope    []byte // the result: the envelope's compact JSON, encoded once
	warmApplied bool
	sweepsDone  int
	sweepsTotal int
	started     time.Time
	finished    time.Time
}

// step is one proposed transition. ev.Type names it, and ev carries the
// event's payload (the sweep fields); the rest are its inputs.
type step struct {
	ev       Event
	at       time.Time // the caller's clock: start and finish times
	warm     bool      // started: a stored prior was applied
	err      error     // terminal steps: why the job failed or stopped
	envelope []byte    // terminal steps: the result's encoding, if any
}

// next returns the lifecycle cur becomes after st, or an error when st is
// illegal in cur's state (see the table above). It takes no lock and
// reads no clock.
func next(cur lifecycle, st step) (lifecycle, error) {
	typ := st.ev.Type
	nx := cur
	switch {
	case cur.state == StateQueued && typ == "started":
		nx.state = StateRunning
		nx.warmApplied = st.warm
		nx.started = st.at
	case cur.state == StateRunning && typ == "sweep":
		if cur.sweepsDone >= cur.sweepsTotal {
			return cur, fmt.Errorf("service: sweep %d of a %d-sweep job", cur.sweepsDone+1, cur.sweepsTotal)
		}
		nx.sweepsDone++
	case cur.state == StateRunning && (typ == "done" || typ == "failed"),
		(cur.state == StateQueued || cur.state == StateRunning) && typ == "canceled":
		if typ == "done" && st.envelope == nil {
			return cur, errors.New("service: a done job needs an envelope")
		}
		nx.state = State(typ)
		nx.err = st.err
		nx.envelope = st.envelope
		nx.finished = st.at
	default:
		return cur, fmt.Errorf("service: a %s job cannot take a %s event", cur.state, typ)
	}
	return nx, nil
}
