package mpi

import (
	"fmt"
)

// SetCostOnly sets whether the calling rank's data operations move data.
// While it is on, they charge the rank exactly the virtual time and noise
// they would otherwise, and touch no buffer: a collective runs no round, and
// a Send or Isend posts its message with no payload, which the matching
// Recv consumes for its arrival time alone. It is the rank's setting, not
// c's: it applies to every communicator of the rank until turned off.
// Its preconditions are the caller's to keep. A collective's members
// enter it with equal clocks, as after an untimed round such as
// Lane.Allreduce; a member's own clock stands for the maximum the round
// would have taken. Either every rank of a world sends and receives
// cost-only or none does, since a data Recv cannot match a message that
// has no payload.
func (c *Comm) SetCostOnly(on bool) { c.state.costOnly = on }

// payload captures buf for an in-flight message in a buffer from the world's
// pool, which the receiver hands back after copying it out (see Recv); a
// cost-only rank sends none.
func (c *Comm) payload(buf []float64) []float64 {
	if c.state.costOnly {
		return nil
	}
	data := c.w.bufs.Get(len(buf))
	copy(data, buf)
	return data
}

// Send transmits a copy of buf to peer dest under tag. Sends are buffered
// (they never block on the receiver), matching MPI's eager protocol: the
// sender is charged the injection cost alpha + beta*n with multiplicative
// noise, and the payload becomes available to the receiver one latency after
// the send completes locally. It returns the sampled local duration.
func (c *Comm) Send(dest, tag int, buf []float64) float64 {
	c.checkPeer(dest)
	m := c.w.machine
	nbytes := 8 * len(buf)
	dt := m.PtToPtTime(nbytes) * m.Noise(c.state.rng)
	c.state.clock.Advance(dt)
	c.w.dataFab.post(c.group[dest], fmsg[[]float64]{
		ctx:     c.ctx,
		src:     c.rank,
		tag:     tag,
		payload: c.payload(buf),
		arrive:  c.state.clock.Now() + m.Alpha,
	})
	return dt
}

// Isend is a nonblocking send. The payload is captured immediately (the
// caller may reuse buf), so the send is complete when Isend returns and
// there is no request to wait on. The transfer cost is sampled at issue,
// the sender is charged only the latency alpha, and the message's arrival
// time carries the transfer cost.
func (c *Comm) Isend(dest, tag int, buf []float64) {
	c.checkPeer(dest)
	m := c.w.machine
	cost := m.PtToPtTime(8*len(buf)) * m.Noise(c.state.rng)
	c.state.clock.Advance(m.Alpha)
	c.w.dataFab.post(c.group[dest], fmsg[[]float64]{
		ctx:     c.ctx,
		src:     c.rank,
		tag:     tag,
		payload: c.payload(buf),
		arrive:  c.state.clock.Now() + cost,
	})
}

// Recv waits until a message from src with the given tag arrives, copies its
// payload into buf (which must have the exact transmitted length), returns
// the payload buffer to the world's pool, and advances the receiver's clock
// to the payload arrival time. It returns the sampled local duration (zero if
// the payload had already arrived in virtual time). Messages from one source
// under one tag land in the order they were sent. A cost-only rank
// (SetCostOnly) leaves buf as it is.
func (c *Comm) Recv(src, tag int, buf []float64) float64 {
	c.checkPeer(src)
	msg := c.w.dataFab.match(c, src, tag)
	if !c.state.costOnly {
		if len(msg.payload) != len(buf) {
			panic(fmt.Sprintf("mpi: recv length mismatch: posted %d, message %d (src %d tag %d)",
				len(buf), len(msg.payload), src, tag))
		}
		copy(buf, msg.payload)
	}
	c.w.bufs.Put(msg.payload)
	before := c.state.clock.Now()
	c.state.clock.AdvanceTo(msg.arrive)
	return c.state.clock.Now() - before
}
