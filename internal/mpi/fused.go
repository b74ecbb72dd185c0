package mpi

// Fused messages pair an untimed auxiliary value (protocol metadata) with an
// optional timed data payload, so a protocol layer that would otherwise send
// an untimed control message followed by a timed data message can post both
// as one fabric message. The profiler's committed nonblocking sends use this
// to halve their message count: the sender's vote rides with the data.
//
// Timing is Isend's cost model when data is present — the two share one
// charge (isendArrival) and one landing (land): the sender is charged the
// latency alpha, the transfer cost (with multiplicative noise drawn at issue)
// is reflected in the arrival time, and the receiver advances to that
// arrival on match. An aux-only message is untimed on both sides: no clock
// advances, no noise draw. A protocol that replaces an {untimed control,
// timed data} pair with one fused message therefore leaves every virtual
// clock and every RNG stream byte-identical.

// fused is the fabric payload of a FusedLane: aux plus optional data.
// hasData discriminates explicitly so a zero-length timed payload is not
// confused with an aux-only message.
type fused[A any] struct {
	aux     A
	data    []float64
	hasData bool
}

// FusedLane is a pre-resolved handle on a world's fabric for fused messages
// with auxiliary type A. Like Lane, high-rate traffic should hold one.
type FusedLane[A any] struct {
	f *fabric[fused[A]]
}

// FusedLaneOf resolves (creating on first use) w's fused lane for auxiliary
// type A.
func FusedLaneOf[A any](w *World) FusedLane[A] {
	return FusedLane[A]{f: fabricOf[fused[A]](w)}
}

// Isend posts aux and a copy of buf as one nonblocking timed message, with
// Isend's cost model (isendArrival): the payload is captured immediately
// (the caller may reuse buf), the caller advances by the machine latency
// alpha, and the arrival time carries the sampled transfer cost.
func (l FusedLane[A]) Isend(c *Comm, dest, tag int, aux A, buf []float64) {
	c.checkPeer(dest)
	arrive := c.isendArrival(len(buf))
	l.f.post(c.group[dest], fmsg[fused[A]]{
		ctx:     c.ctx,
		src:     c.rank,
		tag:     tag,
		payload: fused[A]{aux: aux, data: c.w.copyPayload(buf), hasData: true},
		arrive:  arrive,
	})
}

// Send posts an aux-only message: untimed on both sides, like Lane.Send.
func (l FusedLane[A]) Send(c *Comm, dest, tag int, aux A) {
	c.checkPeer(dest)
	l.f.post(c.group[dest], fmsg[fused[A]]{
		ctx:     c.ctx,
		src:     c.rank,
		tag:     tag,
		payload: fused[A]{aux: aux},
		arrive:  c.state.clock.Now(),
	})
}

// Recv blocks for a fused message from src under tag. When the message
// carries data it lands in buf as Comm.Recv's does (land): buf must have the
// exact transmitted length, the receiver's clock advances to the arrival
// time, and dt is the sampled local duration. For an aux-only message buf is
// untouched, no clock advances, and dt is zero.
func (l FusedLane[A]) Recv(c *Comm, src, tag int, buf []float64) (aux A, dt float64, hasData bool) {
	c.checkPeer(src)
	msg := l.f.match(c, src, tag)
	p := msg.payload
	if !p.hasData {
		return p.aux, 0, false
	}
	return p.aux, c.land("fused recv", src, tag, buf, p.data, msg.arrive), true
}
