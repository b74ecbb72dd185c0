package mpi

import (
	"fmt"
)

// payload captures buf for an in-flight message in a buffer from the world's
// pool, which the receiver hands back after copying it out (see Recv); a
// cost-only world (World.MarkCostOnly) sends none.
func (c *Comm) payload(buf []float64) []float64 {
	if c.w.costOnly {
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
// under one tag land in the order they were sent. On a cost-only world
// (World.MarkCostOnly) it leaves buf as it is.
func (c *Comm) Recv(src, tag int, buf []float64) float64 {
	c.checkPeer(src)
	msg := c.w.dataFab.match(c, src, tag)
	if !c.w.costOnly {
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
