package critter

import (
	"critter/internal/channel"
	"critter/internal/mpi"
	"critter/internal/obs"
)

// Comm is a profiled communicator: every operation runs the paper's path
// propagation protocol (internal piggyback messages on a duplicate
// communicator) around the user operation, which is selectively executed.
// Internal messages travel through the profiler's pre-resolved typed lane
// (mpi.Lane[intMsg]), so the piggyback path never boxes.
type Comm struct {
	p        *Profiler
	user     *mpi.Comm
	internal *mpi.Comm
	ch       channel.Channel
	chOK     bool
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.user.Rank() }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.user.Size() }

// Raw returns the underlying unprofiled communicator (for clock access and
// verification traffic that must not enter the kernel profiles).
func (c *Comm) Raw() *mpi.Comm { return c.user }

// Profiler returns the owning profiler.
func (c *Comm) Profiler() *Profiler { return c.p }

// stride returns the channel stride parameter used in communication-kernel
// signatures (0 for irregular groups).
func (c *Comm) stride() int {
	if !c.chOK || len(c.ch.Dims) == 0 {
		if c.chOK {
			return 1 // single-rank communicator
		}
		return 0
	}
	return c.ch.Dims[0].Stride
}

// Split partitions the profiled communicator (as MPI_Comm_split), splitting
// the internal communicator alongside and deriving the new communicator's
// channel, which its kernel signatures (stride) and the eager policy's
// coverage (aggregateEager) read. Ranks passing a negative color receive
// nil. The internal communicator has the user one's group, so its split is
// derived from the user split (mpi.Comm.SplitAs), not run as a second round.
// The handle is the one the profiler freed last (see Free), when it has one,
// and it keeps its channel when that still describes the new group, so a
// grid split again for every configuration and released after it builds
// neither handles nor channels past the first.
func (c *Comm) Split(color, key int) *Comm {
	user := c.user.Split(color, key)
	internal := c.internal.SplitAs(user, color)
	if user == nil {
		return nil
	}
	s := c.p.handle()
	s.user, s.internal = user, internal
	if !s.chOK || !describes(s.ch, user.Group()) {
		s.ch, s.chOK = channel.FromGroup(user.Group())
	}
	return s
}

// Free frees a communicator Split returned, its user and internal
// communicators with it (mpi.Comm.Free), and files the handle for the
// profiler's next Split. It is local; the handle must not be used after,
// and no Isend on it may await its Waitall. Free panics on the world
// communicator (Profiler.World), whose user communicator mpi refuses, and
// on a handle already freed.
func (c *Comm) Free() {
	if c.user == nil {
		panic("critter: Free of a freed communicator")
	}
	for _, s := range c.p.isends {
		if s.comm == c.internal {
			panic("critter: Free of a communicator with an Isend awaiting Waitall")
		}
	}
	c.user.Free()
	c.internal.Free()
	c.user, c.internal = nil, nil
	c.p.freed = append(c.p.freed, c)
}

// handle returns a handle for a new communicator: the one the profiler
// freed last, channel kept, when there is one, else a new one.
func (p *Profiler) handle() *Comm {
	if k := len(p.freed); k > 0 {
		c := p.freed[k-1]
		p.freed[k-1] = nil
		p.freed = p.freed[:k-1]
		return c
	}
	return &Comm{p: p}
}

// describes reports whether ch is the channel channel.FromGroup derives
// from group with ok, without deriving it. It answers false for a group
// FromGroup would have to sort, which costs only a rebuild.
func describes(ch channel.Channel, group []int) bool {
	if len(group) == 1 {
		return len(ch.Dims) == 0
	}
	if len(ch.Dims) != 1 || ch.Dims[0].Size != len(group) {
		return false
	}
	for i, d := 1, ch.Dims[0].Stride; i < len(group); i++ {
		if group[i]-group[i-1] != d {
			return false
		}
	}
	return true
}

// The profiled operations, interned once: an interception carries its op's
// handle, not its name. A round event names its op (complete), so the two
// ops that are rounds but no kernel, sendrecv and wait, have handles too.
var (
	opBarrier   = internName("barrier")
	opBcast     = internName("bcast")
	opAllreduce = internName("allreduce")
	opAllgather = internName("allgather")
	opGather    = internName("gather")
	opScatter   = internName("scatter")
	opSend      = internName("send")
	opRecv      = internName("recv")
	opIsend     = internName("isend")
	opSendrecv  = internName("sendrecv")
	opWait      = internName("wait")
)

// collective intercepts one blocking collective: agree on execution via an
// internal allreduce (which also propagates pathsets), adopt the merged
// pathset, then complete the round with the user operation as its one leg.
func (c *Comm) collective(op kernelName, words int, bspWords float64, run func() float64) {
	p := c.p
	id, ks := p.intercept(commKey(op, words, c.user.Size(), c.stride()))
	local := intMsg{Exec: p.shouldExecute(id, ks), Path: p.snapshot()}
	g := c.p.lane.Allreduce(c.internal, local, propagate)
	p.adopt(g.Path)
	p.complete(op, leg{ks, g.Exec, bspWords, run}, leg{})
	if p.opts.Policy == Eager {
		p.aggregateEager(c)
	}
}

// leg is one user communication kernel of an operation: its record, the agreed
// decision, the words it moves, and run, which performs it and returns its
// duration. A leg with a nil ks is absent.
type leg struct {
	ks    *kernelStats
	exec  bool
	words float64
	run   func() float64
}

// complete is Figure 2's protocol after the internal exchange, for every
// profiled op: it emits the round event, then settles legs a and b in turn
// and charges each to the path and the volumetric accumulators. It does not
// adopt the peer's pathset; each caller does, on the side of complete that
// counts the idle wait for the peer exactly once. In the simulator's cost
// model no internal round is timed (none charges a transfer cost), and a user
// op's duration is the time its rank's clock advances, idle wait included:
//   - A collective adopts first. Its internal allreduce moves every member's
//     clock to the last arriver's at no cost, so the wait is over before the
//     user op starts and the op's duration is its transfer cost alone. The
//     merged pathset is the longest path into the round; the cost added to it
//     is the path out. Charging first would add the cost to this rank's path
//     only, short of the longest one.
//   - Recv, Sendrecv and Waitall adopt after. Their internal messages move
//     no clock, so a blocking op's duration includes the wait: a receiver's
//     clock jumps to the payload's arrival, which already counts the
//     sender's path up to the send. Charging the leg and then max-merging
//     the peer's pathset counts that wait once; adopting first would count
//     it twice. (A wait has no leg, so the order is moot there.)
//   - Isend adopts nothing: the receiver's reply reaches it at Waitall.
//
// On a clock's world (NewClock, NewReference), which is cost-only
// (mpi.World.MarkCostOnly), the legs charge their time and move no data,
// which no kernel of a clock wrote. A collective's internal allreduce has
// just given its members equal clocks, so the user round the leg skips would
// only have confirmed that maximum.
//
// The event carries the clock before the legs run; Memoized flags a latest
// local skip replayed from predCache, consumed here so an op with no decision
// of its own (wait) never inherits one. p.trace is non-nil only on rank 0 of
// a traced world, so the disabled path costs one branch.
func (p *Profiler) complete(op kernelName, a, b leg) {
	if p.trace != nil {
		ev := obs.Event{Kind: obs.KindRound, Phase: obs.PhasePoint, Name: op.String(), Virtual: p.world.user.Clock()}
		if p.lastReplayed {
			ev.Memoized = 1
			p.lastReplayed = false
		}
		p.trace.Emit(ev)
	}
	for _, l := range [...]leg{a, b} {
		if l.ks == nil {
			continue
		}
		dt := p.settle(l.ks, l.exec, l.run)
		p.path.ExecTime += dt
		p.path.CommTime += dt
		p.path.BSPComm += l.words
		p.path.BSPSync++
		p.volCommWords += l.words
		p.volSync++
	}
}

// Barrier profiles a barrier synchronization.
func (c *Comm) Barrier() {
	c.collective(opBarrier, 0, 0, func() float64 { return c.user.Barrier() })
}

// Bcast profiles a broadcast of buf from root.
func (c *Comm) Bcast(root int, buf []float64) {
	c.collective(opBcast, len(buf), float64(len(buf)),
		func() float64 { return c.user.Bcast(root, buf) })
}

// Allreduce profiles an elementwise all-reduction.
func (c *Comm) Allreduce(in, out []float64, op mpi.ReduceOp) {
	c.collective(opAllreduce, len(in), float64(len(in)),
		func() float64 { return c.user.Allreduce(in, out, op) })
}

// Allgather profiles an allgather of equal-size contributions.
func (c *Comm) Allgather(in, out []float64) {
	c.collective(opAllgather, len(in), float64(len(in)*(c.user.Size()-1)),
		func() float64 { return c.user.Allgather(in, out) })
}

// Gather profiles a gather to root.
func (c *Comm) Gather(root int, in, out []float64) {
	c.collective(opGather, len(in), float64(len(in)*(c.user.Size()-1)),
		func() float64 { return c.user.Gather(root, in, out) })
}

// Scatter profiles a scatter from root; out is each rank's segment.
func (c *Comm) Scatter(root int, in, out []float64) {
	c.collective(opScatter, len(out), float64(len(out)*(c.user.Size()-1)),
		func() float64 { return c.user.Scatter(root, in, out) })
}

// p2pKey builds the signature of a point-to-point kernel: the size-2 channel
// the paper assigns to a pair of ranks, whose stride is the world-rank
// distance of the endpoints (1 for a self-message), taken without
// materializing the channel (this runs on every p2p interception).
func (c *Comm) p2pKey(op kernelName, words, peer int) Key {
	a, b := c.user.Group()[c.user.Rank()], c.user.Group()[peer]
	s := b - a
	if s < 0 {
		s = -s
	}
	if s == 0 {
		s = 1 // self-message; degenerate but keep a valid stride
	}
	return commKey(op, words, 2, s)
}

// Internal piggyback messages are tagged by direction so that an Isend's
// decision can only pair with the matching receive and the receive's reply
// only with the Isend's wait, regardless of how the application interleaves
// traffic between the same pair of ranks. Every message is untimed and
// travels on the profiler's one intMsg lane: the Isend's committed decision
// (sendIntTag), the receiver's reply (recvIntTag) and Sendrecv's symmetric
// exchange (srIntTag). An executing user op sends its data on the user
// communicator; a data message exists exactly when its decision says
// execute, so decisions and data pair in order.
func sendIntTag(tag int) int { return 3 * tag }
func recvIntTag(tag int) int { return 3*tag + 1 }
func srIntTag(tag int) int   { return 3*tag + 2 }

// Recv profiles a blocking receive matching a profiled Isend. The sender has
// committed its decision and the receiver follows it. The receiver still
// takes its own decision, which Report.Memoized and the round event's flag
// count, and replies with its pathset, which the sender adopts at Waitall.
func (c *Comm) Recv(src, tag int, buf []float64) {
	p := c.p
	id, ks := p.intercept(c.p2pKey(opRecv, len(buf), src))
	p.shouldExecute(id, ks)
	p.lane.Send(c.internal, src, recvIntTag(tag), intMsg{Path: p.snapshot()})
	peer := p.lane.Recv(c.internal, src, sendIntTag(tag))
	p.complete(opRecv, leg{ks, peer.Exec, float64(len(buf)),
		func() float64 { return c.user.Recv(src, tag, buf) }}, leg{})
	p.adopt(peer.Path)
}

// Sendrecv profiles a symmetric pairwise exchange, the butterfly pattern of
// TSQR: sendBuf goes to peer and recvBuf receives peer's sendBuf, both on
// tag. A single combined internal exchange carries votes for both kernels,
// so the two sides always reach identical execution decisions and the pair
// cannot deadlock.
func (c *Comm) Sendrecv(peer, tag int, sendBuf, recvBuf []float64) {
	p := c.p
	sendID, _ := p.intercept(c.p2pKey(opSend, len(sendBuf), peer))
	recvID, rks := p.intercept(c.p2pKey(opRecv, len(recvBuf), peer))
	// Taken after both lookups: the second may have grown the records and
	// invalidated a pointer from the first.
	sks := p.at(sendID)
	localSend := p.shouldExecute(sendID, sks)
	localRecv := p.shouldExecute(recvID, rks)
	got := p.lane.Exchange(c.internal, peer, srIntTag(tag),
		intMsg{Exec: localSend, Exec2: localRecv, Path: p.snapshot()})
	// My send pairs with the peer's receive and vice versa; both sides
	// compute the same OR for each direction.
	p.complete(opSendrecv,
		leg{sks, localSend || got.Exec2, float64(len(sendBuf)),
			func() float64 { return c.user.Send(peer, tag, sendBuf) }},
		leg{rks, localRecv || got.Exec, float64(len(recvBuf)),
			func() float64 { return c.user.Recv(peer, tag, recvBuf) }})
	p.adopt(got.Path)
}

// isend is an Isend whose receiver's reply the rank has yet to consume: the
// internal communicator, the destination and the user tag.
type isend struct {
	comm *mpi.Comm
	peer int
	tag  int
}

// Isend profiles a nonblocking send. The execution decision is made
// unilaterally from the sender's model (a committed decision the receiver
// follows), and the receiver's pathset reply is consumed at the rank's next
// Profiler.Waitall, mirroring Figure 2's nonblocking protocol. The decision
// travels untimed; an executing send then posts its data with mpi.Comm.Isend
// (the caller may reuse buf immediately).
func (c *Comm) Isend(dest, tag int, buf []float64) {
	p := c.p
	id, ks := p.intercept(c.p2pKey(opIsend, len(buf), dest))
	exec := p.shouldExecute(id, ks)
	p.lane.Send(c.internal, dest, sendIntTag(tag), intMsg{Exec: exec, Path: p.snapshot()})
	p.complete(opIsend, leg{ks, exec, float64(len(buf)), func() float64 {
		t0 := c.user.Clock()
		c.user.Isend(dest, tag, buf)
		return c.user.Clock() - t0
	}}, leg{})
	p.isends = append(p.isends, isend{comm: c.internal, peer: dest, tag: tag})
}

// Waitall completes, in posting order, every Isend the rank has posted since
// its last Waitall, on any communicator: it consumes each receiver's
// internal reply, emits the wait round and adopts the reply's pathset. The
// list keeps its capacity, so a steady burst of Isends allocates nothing.
func (p *Profiler) Waitall() {
	for _, s := range p.isends {
		m := p.lane.Recv(s.comm, s.peer, recvIntTag(s.tag))
		p.complete(opWait, leg{}, leg{})
		p.adopt(m.Path)
	}
	clear(p.isends)
	p.isends = p.isends[:0]
}

// Clock returns the rank's virtual time.
func (c *Comm) Clock() float64 { return c.user.Clock() }
