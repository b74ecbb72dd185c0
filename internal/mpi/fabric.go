package mpi

// The typed message fabric: the allocation-lean core every communication
// path runs on. A World owns one fabric per payload type, created on first
// use; a fabric owns one mailbox per world rank and the table of its open
// collective rounds. A world's ranks never run at once (World.loop), so none
// of it takes a lock: a rank that must wait yields, and whoever satisfies
// the wait readies it. A payload is stored as its concrete type end to end,
// so typed messages (the profiler's intMsg piggyback, Split's color/key
// slots) never box through interface{}.
//
// Matching is per fabric: a message sent as type T is received as type T.
// SPMD symmetry makes this safe — peers issue the same operation with the
// same payload type on both sides.

import (
	"math/bits"
	"reflect"
	"slices"
	"sync"
)

// fmsg is one in-flight message of a typed fabric.
type fmsg[T any] struct {
	ctx     uint64
	src     int // rank within the communicator
	tag     int
	payload T
	arrive  float64 // virtual time at which the payload is fully available
}

// fbox holds in-flight point-to-point messages destined to one world rank.
type fbox[T any] struct {
	queue []fmsg[T]
	// waiting is set while the owning rank is suspended in match for the
	// message want describes; only the post of such a message clears it and
	// readies the rank. A rank waiting for one message sleeps through the
	// others, such as the replies to its own profiled Isends that arrive
	// while it waits for a peer's vote on the same lane.
	waiting bool
	want    msgKey
}

// msgKey is what a receive matches: context, source rank and tag.
type msgKey struct {
	ctx      uint64
	src, tag int
}

// round coordinates one collective operation instance: one slot per member
// for its payload and its entry clock.
type round[T any] struct {
	arrived  int
	departed int
	maxT     float64
	payloads []T
	clocks   []float64
}

// roundKey identifies a collective round: the communicator's matching
// context and the per-rank sequence number of the operation on it.
type roundKey struct {
	ctx uint64
	seq uint64
}

// maxFreeRounds bounds a fabric's freelist of recycled rounds: a fabric
// rarely has more than a few rounds open at once (one per communicator in
// mid-round), and anything beyond the bound falls to the collector.
const maxFreeRounds = 16

// fabric is the per-payload-type message substrate of one World.
type fabric[T any] struct {
	w      *World
	boxes  []fbox[T]
	rounds map[roundKey]*round[T]
	// free holds the rounds reduceRound has finished with (struct, payload
	// and clock slices, slots cleared), at most maxFreeRounds of them; a
	// fabric in steady state opens its rounds without allocating.
	free []*round[T]
}

// open returns a round with n empty slots, recycled when the freelist has
// one. A recycled round too small for this communicator is dropped for a
// fresh one, so the freelist converges on the largest size the fabric
// serves.
func (f *fabric[T]) open(n int) *round[T] {
	if k := len(f.free); k > 0 {
		rd := f.free[k-1]
		f.free[k-1] = nil
		f.free = f.free[:k-1]
		if cap(rd.payloads) >= n {
			rd.payloads, rd.clocks = rd.payloads[:n], rd.clocks[:n]
			return rd
		}
	}
	return &round[T]{payloads: make([]T, n), clocks: make([]float64, n)}
}

// recycle clears rd's slots (a freelist must not pin a delivered payload)
// and files it for the next open.
func (f *fabric[T]) recycle(rd *round[T]) {
	if len(f.free) >= maxFreeRounds {
		return
	}
	clear(rd.payloads)
	*rd = round[T]{payloads: rd.payloads[:0], clocks: rd.clocks[:0]}
	f.free = append(f.free, rd)
}

// anyFabric is what World.Run does with a fabric of any payload type.
type anyFabric interface {
	giveBoxes(p *BufPool)
}

// fabricOf returns w's fabric for payload type T, creating it on first use
// with the mailbox array the last world on w's pool gave back for T, when
// that holds w's ranks (see giveBoxes), so its queues start at the capacity
// that world grew them to.
func fabricOf[T any](w *World) *fabric[T] {
	key := reflect.TypeFor[T]()
	if f, ok := w.fabrics[key]; ok {
		return f.(*fabric[T])
	}
	boxes, _ := w.bufs.takeBoxes(key, w.size).([]fbox[T])
	if boxes == nil {
		boxes = make([]fbox[T], w.size)
	}
	f := &fabric[T]{w: w, boxes: boxes[:w.size], rounds: make(map[roundKey]*round[T])}
	w.fabrics[key] = f
	return f
}

// giveBoxes empties the fabric's mailboxes, which pin no payload after, and
// files their array, queues and all, on p for the next world's fabric of
// this type. World.Run calls it when the world has ended normally, so no
// rank waits in a mailbox.
func (f *fabric[T]) giveBoxes(p *BufPool) {
	boxes := f.boxes[:cap(f.boxes)]
	for i := range boxes {
		clear(boxes[i].queue)
		boxes[i] = fbox[T]{queue: boxes[i].queue[:0]}
	}
	p.putBoxes(reflect.TypeFor[T](), boxes, len(boxes))
}

// post delivers m to world rank dest's mailbox on this fabric, readying dest
// if it waits for m.
func (f *fabric[T]) post(dest int, m fmsg[T]) {
	box := &f.boxes[dest]
	box.queue = append(box.queue, m)
	if box.waiting && box.want == (msgKey{m.ctx, m.src, m.tag}) {
		box.waiting = false
		f.w.ready(dest)
	}
}

// match waits until a message with (ctx, src, tag) is present in the
// calling rank's mailbox on this fabric and removes it (FIFO among equals).
func (f *fabric[T]) match(c *Comm, src, tag int) fmsg[T] {
	box := &f.boxes[c.state.worldRank]
	for {
		for i := range box.queue {
			m := &box.queue[i]
			if m.ctx == c.ctx && m.src == src && m.tag == tag {
				out := *m
				// Delete zeroes the vacated tail slot, so the mailbox does
				// not pin a delivered payload.
				box.queue = slices.Delete(box.queue, i, i+1)
				return out
			}
		}
		box.want = msgKey{c.ctx, src, tag}
		box.waiting = true
		c.state.wait()
	}
}

// reduceRound is the one wait path of every collective round on this fabric:
// the caller deposits payload and its clock in its slot of the round numbered
// by c.collSeq (which also seeds finishColl's noise), and the last member to
// arrive computes the maximum participant clock, runs finish (when non-nil)
// over the slots in comm-rank order, and readies the others. finish must
// leave in members[i] what rank i is to receive. Every other member is
// suspended from its deposit until that wakeup, so finish may read and write
// through any member's payload (the callers' own buffers included) as if it
// were alone. A panic in finish unwinds the last arriver like a panic
// anywhere else in a rank body: World.Run turns it into an abort that stops
// the suspended members.
//
// Each member returns its own slot by value, the maximum participant clock,
// and the round's sequence number. The round itself (struct, slot and clock
// slices) comes from, and returns to, the fabric's freelist, so a round
// allocates nothing in steady state.
func (f *fabric[T]) reduceRound(c *Comm, payload T, finish func(members []T)) (mine T, maxT float64, seq uint64) {
	seq = c.collSeq
	c.collSeq++
	key := roundKey{c.ctx, seq}
	n := len(c.group)
	rd, ok := f.rounds[key]
	if !ok {
		rd = f.open(n)
		f.rounds[key] = rd
	}
	rd.payloads[c.rank] = payload
	rd.clocks[c.rank] = c.state.clock.Now()
	rd.arrived++
	if rd.arrived < n {
		c.state.wait()
	} else {
		delete(f.rounds, key)
		rd.maxT = rd.clocks[0]
		for _, t := range rd.clocks[1:] {
			if t > rd.maxT {
				rd.maxT = t
			}
		}
		if finish != nil {
			finish(rd.payloads)
		}
		for r, wr := range c.group {
			if r != c.rank {
				f.w.ready(wr)
			}
		}
	}
	mine, maxT = rd.payloads[c.rank], rd.maxT
	rd.departed++
	if rd.departed == n {
		f.recycle(rd)
	}
	return mine, maxT, seq
}

// Lane is a pre-resolved handle on a world's fabric for one payload type:
// the per-operation type-to-fabric lookup is paid once at construction
// (LaneOf) instead of on every message. High-rate typed traffic — the
// profiler's per-operation piggyback messages — should hold a Lane; the
// package-level generic functions resolve the fabric per call and suit
// construction-time or low-rate use.
type Lane[T any] struct {
	f *fabric[T]
}

// LaneOf resolves (creating on first use) w's lane for payload type T.
func LaneOf[T any](w *World) Lane[T] { return Lane[T]{f: fabricOf[T](w)} }

// Send transmits a typed payload to dest under tag without advancing any
// virtual clock. It exists for internal piggyback traffic (the profiler's
// protocol messages), whose overhead the paper treats as negligible. It
// never waits: the message goes into dest's mailbox, and dest, if it waits
// for it, back on the run queue; the caller runs on. The payload is not
// copied; treat it as immutable after sending.
func (l Lane[T]) Send(c *Comm, dest, tag int, payload T) {
	c.checkPeer(dest)
	l.f.post(c.group[dest], fmsg[T]{
		ctx:     c.ctx,
		src:     c.rank,
		tag:     tag,
		payload: payload,
		arrive:  c.state.clock.Now(),
	})
}

// Recv waits for a typed payload from src under tag. Clocks are not
// advanced.
func (l Lane[T]) Recv(c *Comm, src, tag int) T {
	c.checkPeer(src)
	return l.f.match(c, src, tag).payload
}

// Exchange sends payload to peer and receives the peer's payload, both
// untimed. Both sides must call it. It is the runtime's analogue of the
// internal combined send-receive in Figure 2 of the paper.
func (l Lane[T]) Exchange(c *Comm, peer, tag int, payload T) T {
	l.Send(c, peer, tag, payload)
	return l.Recv(c, peer, tag)
}

// Allreduce is the profiler's internal coordination primitive (the
// PMPI_Allreduce with a custom operator in Figure 2 of the paper) as one
// reduceRound: finish runs once, on the last member to arrive, over every
// member's payload in comm-rank order while the others wait, and leaves
// in members[i] what rank i returns. Clocks are synchronized to the maximum
// participant time but no transfer cost is charged. Whatever finish hands to
// more than one slot is shared across those ranks and must be treated as
// immutable; AllreduceMsg is the plain fold-and-hand-to-all form.
func (l Lane[T]) Allreduce(c *Comm, payload T, finish func(members []T)) T {
	out, maxT, _ := l.f.reduceRound(c, payload, finish)
	c.state.clock.AdvanceTo(maxT)
	return out
}

// AllreduceMsg folds every member's typed payload with merge in comm-rank
// order — once, on the last arriver — and returns the result to all members,
// untimed. merge must be pure; the result is shared across ranks and must be
// treated as immutable. See Lane.Allreduce.
func AllreduceMsg[T any](c *Comm, payload T, merge func(a, b T) T) T {
	return LaneOf[T](c.w).Allreduce(c, payload, func(members []T) {
		acc := members[0]
		for _, p := range members[1:] {
			acc = merge(acc, p)
		}
		for i := range members {
			members[i] = acc
		}
	})
}

// BcastMsg hands comm rank 0's typed payload to every member, untimed: the
// other members' payloads are ignored, and clocks synchronize to the maximum
// participant time without charging cost. The result is shared across ranks
// and must be treated as immutable. See Lane.Allreduce.
func BcastMsg[T any](c *Comm, payload T) T {
	return LaneOf[T](c.w).Allreduce(c, payload, keepFirst[T])
}

// keepFirst is BcastMsg's finish: every member receives rank 0's payload.
func keepFirst[T any](members []T) {
	for i := range members {
		members[i] = members[0]
	}
}

// BufPool recycles data-plane payload buffers ([]float64) across messages.
// Buffers are filed by power-of-two size class; Get and Put are safe for
// concurrent use (each class holds its freelist under its own mutex, so a
// put never allocates — unlike sync.Pool, whose interface conversion would
// box every slice header). Every World owns one from NewWorld on, and one
// pool may serve many worlds over its lifetime — the sweep executor threads
// one per worker so consecutive sweeps reuse each other's buffers instead of
// reallocating the same tile-sized payloads thousands of times. A world that
// ends normally also leaves its fabrics' mailbox arrays on the pool, at most
// one per payload type, and the next world to create a fabric of that type
// takes the array, queues grown and all (fabricOf). Unlike the fabrics,
// which only their world's ranks touch, a pool is shared by worlds running
// on different goroutines, so it keeps its locks; fabric.go and world.go
// are the only mpi files that may hold raw synchronization primitives
// (enforced by critterlint's fabriclock).
type BufPool struct {
	classes [31]bufClass

	// boxes holds, per payload type, the mailbox array ([]fbox[T]) the
	// last world to end on the pool gave back (giveBoxes), for the next
	// world's fabricOf to take; boxMu guards it.
	boxMu sync.Mutex
	boxes map[reflect.Type]boxArray
}

// boxArray is a mailbox array on a pool's shelf and the ranks it holds.
type boxArray struct {
	boxes any
	n     int
}

// bufClass is one size class's freelist.
type bufClass struct {
	mu   sync.Mutex
	free [][]float64
}

// A class's freelist is bounded by the memory it may hold (maxPooledWords),
// never below minPooledPerClass buffers; beyond the bound buffers fall to the
// garbage collector. The bound is there for pathological bursts only: a pool
// that overflows in steady state drops and remakes buffers at a rate that
// depends on how far apart the ranks happen to run, which is what a count
// bound of 256 did to the 2 KB class once slate.QR's per-iteration tiles
// (about 900 live per 32-rank world at nb = 16) went through the pool.
const (
	minPooledPerClass = 256
	maxPooledWords    = 1 << 20 // 8 MB per class
)

// classBound returns how many buffers class c's freelist may hold.
func classBound(c int) int { return max(minPooledPerClass, maxPooledWords>>c) }

// NewBufPool returns an empty pool.
func NewBufPool() *BufPool { return &BufPool{} }

// Len returns how many buffers the pool holds, over all size classes.
func (p *BufPool) Len() int {
	n := 0
	for i := range p.classes {
		cl := &p.classes[i]
		cl.mu.Lock()
		n += len(cl.free)
		cl.mu.Unlock()
	}
	return n
}

// sizeClass returns the smallest c with n <= 1<<c.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a length-n buffer with unspecified contents.
func (p *BufPool) Get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	if c >= len(p.classes) {
		return make([]float64, n)
	}
	if b := p.classes[c].pop(); b != nil {
		return b[:n]
	}
	return make([]float64, n, 1<<c)
}

// getAtLeast is Get from the smallest class at or above n's that holds a
// buffer, so one buffer serves every smaller request; only when none does
// is a buffer of n's class made. n must be positive.
func (p *BufPool) getAtLeast(n int) []float64 {
	for c := sizeClass(n); c < len(p.classes); c++ {
		if b := p.classes[c].pop(); b != nil {
			return b[:n]
		}
	}
	return p.Get(n)
}

// takeBoxes takes the pool's mailbox array for payload type t off its
// shelf when it holds at least n ranks, leaving the shelf empty, so two
// worlds running at once never share one; it returns nil otherwise.
func (p *BufPool) takeBoxes(t reflect.Type, n int) any {
	p.boxMu.Lock()
	defer p.boxMu.Unlock()
	b, ok := p.boxes[t]
	if !ok || b.n < n {
		return nil
	}
	delete(p.boxes, t)
	return b.boxes
}

// putBoxes shelves boxes, a mailbox array of payload type t holding n
// ranks, in place of any it holds: a pool keeps one array per payload type.
func (p *BufPool) putBoxes(t reflect.Type, boxes any, n int) {
	p.boxMu.Lock()
	defer p.boxMu.Unlock()
	if p.boxes == nil {
		p.boxes = make(map[reflect.Type]boxArray)
	}
	p.boxes[t] = boxArray{boxes, n}
}

// pop takes a buffer off the class's freelist, nil when it is empty.
func (cl *bufClass) pop() []float64 {
	var b []float64
	cl.mu.Lock()
	if k := len(cl.free); k > 0 {
		b = cl.free[k-1]
		cl.free = cl.free[:k-1]
	}
	cl.mu.Unlock()
	return b
}

// Put recycles b. The buffer is filed under the largest power-of-two class
// its capacity fully covers, so a later Get never reslices past capacity.
func (p *BufPool) Put(b []float64) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1
	if c >= len(p.classes) {
		return
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if len(cl.free) < classBound(c) {
		cl.free = append(cl.free, b[:0])
	}
	cl.mu.Unlock()
}
