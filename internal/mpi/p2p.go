package mpi

import (
	"fmt"
)

// copyPayload captures a data payload for an in-flight message in a buffer
// from the world's pool; the receiver hands it back after copying it out
// (see land).
func (w *World) copyPayload(buf []float64) []float64 {
	data := w.bufs.Get(len(buf))
	copy(data, buf)
	return data
}

// isendArrival is the nonblocking-send cost model, shared by Isend and
// FusedLane.Isend: the transfer cost of words is sampled at issue, the
// sender is charged the latency alpha, and the returned arrival time
// carries the transfer cost.
func (c *Comm) isendArrival(words int) float64 {
	m := c.w.machine
	cost := m.PtToPtTime(8*words) * m.Noise(c.state.rng)
	c.state.clock.Advance(m.Alpha)
	return c.state.clock.Now() + cost
}

// land is the receive landing, shared by Recv and FusedLane.Recv: it copies
// the matched payload data into buf (which must have the exact transmitted
// length), returns data to the world's pool, and advances the receiver's
// clock to arrive. It returns the sampled local duration (zero if the
// payload had already arrived in virtual time); op names the operation in
// a length panic.
func (c *Comm) land(op string, src, tag int, buf, data []float64, arrive float64) float64 {
	if len(data) != len(buf) {
		panic(fmt.Sprintf("mpi: %s length mismatch: posted %d, message %d (src %d tag %d)",
			op, len(buf), len(data), src, tag))
	}
	copy(buf, data)
	c.w.bufs.Put(data)
	before := c.state.clock.Now()
	c.state.clock.AdvanceTo(arrive)
	return c.state.clock.Now() - before
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
		payload: c.w.copyPayload(buf),
		arrive:  c.state.clock.Now() + m.Alpha,
	})
	return dt
}

// Recv blocks until a message from src with the given tag arrives, copies its
// payload into buf (which must have the exact transmitted length), and
// advances the receiver's clock to the payload arrival time. It returns the
// sampled local duration (zero if the payload had already arrived in virtual
// time).
func (c *Comm) Recv(src, tag int, buf []float64) float64 {
	c.checkPeer(src)
	msg := c.w.dataFab.match(c, src, tag)
	return c.land("recv", src, tag, buf, msg.payload, msg.arrive)
}

// Sendrecv performs a combined send to dest and receive from src, as
// MPI_Sendrecv. Because sends are buffered it cannot deadlock.
func (c *Comm) Sendrecv(dest, sendTag int, sendBuf []float64, src, recvTag int, recvBuf []float64) {
	c.Send(dest, sendTag, sendBuf)
	c.Recv(src, recvTag, recvBuf)
}

// Request represents an outstanding nonblocking operation; complete it with
// Wait.
type Request struct {
	c      *Comm
	isSend bool
	src    int
	tag    int
	buf    []float64
	done   bool
}

// completedSend is the request every Isend returns: the payload is captured
// at issue time, so the operation is already complete and the handle is
// immutable (Wait only reads done). Sharing one saves an allocation per
// nonblocking send.
var completedSend = &Request{isSend: true, done: true}

// Isend starts a nonblocking send. The payload is captured immediately (the
// caller may reuse buf); the sender is charged only the latency alpha, with
// the transfer cost reflected in the message arrival time.
func (c *Comm) Isend(dest, tag int, buf []float64) *Request {
	c.checkPeer(dest)
	arrive := c.isendArrival(len(buf))
	c.w.dataFab.post(c.group[dest], fmsg[[]float64]{
		ctx:     c.ctx,
		src:     c.rank,
		tag:     tag,
		payload: c.w.copyPayload(buf),
		arrive:  arrive,
	})
	return completedSend
}

// Irecv posts a nonblocking receive; the match occurs when Wait is called.
// buf must remain valid until then.
func (c *Comm) Irecv(src, tag int, buf []float64) *Request {
	c.checkPeer(src)
	return &Request{c: c, isSend: false, src: src, tag: tag, buf: buf}
}

// Wait completes the request, blocking if necessary, and returns the sampled
// local duration attributable to the completion.
func (r *Request) Wait() float64 {
	if r.done {
		return 0
	}
	r.done = true
	return r.c.Recv(r.src, r.tag, r.buf)
}

// Done reports whether the request has been completed by Wait.
func (r *Request) Done() bool { return r.done }

// Waitall completes all requests in order.
func Waitall(reqs []*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Wait()
		}
	}
}
