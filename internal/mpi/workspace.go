package mpi

// Workspace is one rank's private scratch stack: the buffers a factorization
// needs for one step — a panel, a recursion frame, a k iteration — are carved
// off it with Get and popped together with Release, so a step that recurs
// (and an autotuning sweep is the same steps over and over) allocates
// nothing after the first time. Get returns exactly what make([]float64, n)
// returns — a zeroed slice of length and capacity n — so no value a kernel
// reads changes, whether the kernels that would have written the buffer were
// executed or skipped.
//
// The stack is a list of power-of-two chunks of increasing size that never
// move: when the chunk being carved cannot hold a request, carving continues
// in the next one big enough (a new one, twice the last, when there is none),
// and every buffer handed out earlier stays where it is. Chunks come from the
// world's BufPool and go back to it when the rank's body returns, so
// consecutive worlds of a worker recycle them.
//
// A Workspace is confined to its rank's coroutine and holds no lock. It is
// deliberately not a held-list on the shared pool: how much a shared pool
// must hold depends on how far apart the ranks happen to run, while each
// rank's stack depth depends on its own program only.
//
// Everything Comm's operations need of a buffer is over when they return:
// payloads are captured at issue, and rounds complete before any member
// leaves.
//
// On a cost-only world (World.MarkCostOnly), whose ranks read no number,
// Get ignores the stack and returns a view of the world's one scratch
// buffer, shared by all of its ranks and not zeroed: every Get aliases every
// other. That is race-free because the ranks run on one goroutine. The
// scratch comes from the world's pool — the smallest pooled buffer that is
// large enough, so a worker's consecutive worlds pass one buffer along — and
// goes back to it when Run returns with no failure; when a Get outgrows it,
// the old buffer is dropped, not pooled, since stale views of it may still
// be written.
type Workspace struct {
	pool   *BufPool
	w      *World // the rank's world; nil outside one (tests)
	chunks [][]float64
	cur    int // index of the chunk being carved
	off    int // words of chunks[cur] handed out
}

// WorkspaceMark is a position of the stack, taken by Mark and restored by
// Release.
type WorkspaceMark struct{ chunk, off int }

// minWorkspaceChunk is the size in words of a stack's first chunk.
const minWorkspaceChunk = 1 << 12

// Workspace returns the calling rank's scratch stack. Every communicator of
// a rank returns the same one.
func (c *Comm) Workspace() *Workspace { return &c.state.ws }

// Mark returns the current top of the stack.
func (ws *Workspace) Mark() WorkspaceMark { return WorkspaceMark{ws.cur, ws.off} }

// Release pops everything handed out since m was taken. Marks nest: release
// them in the reverse of the order they were taken (releasing an outer mark
// releases the inner ones with it).
func (ws *Workspace) Release(m WorkspaceMark) { ws.cur, ws.off = m.chunk, m.off }

// Get pushes a zeroed buffer of length and capacity n, valid until a mark
// taken before it is released. On a cost-only world it returns a view of
// the world's scratch instead, with unspecified contents.
func (ws *Workspace) Get(n int) []float64 {
	if n == 0 {
		return []float64{}
	}
	if w := ws.w; w != nil && w.costOnly {
		if cap(w.scratch) < n {
			w.scratch = w.bufs.getAtLeast(n)
		}
		return w.scratch[:n:n]
	}
	for ; ws.cur < len(ws.chunks); ws.cur, ws.off = ws.cur+1, 0 {
		if c := ws.chunks[ws.cur]; n <= len(c)-ws.off {
			buf := c[ws.off : ws.off+n : ws.off+n]
			ws.off += n
			clear(buf)
			return buf
		}
	}
	size := max(minWorkspaceChunk, 1<<sizeClass(n))
	if k := len(ws.chunks); k > 0 {
		size = max(size, 2*len(ws.chunks[k-1]))
	}
	c := ws.pool.Get(size)
	clear(c[:n])
	ws.chunks = append(ws.chunks, c)
	ws.off = n
	return c[:n:n]
}

// drain empties the stack and gives its chunks back to the pool. World.Run
// calls it when the rank's body has returned normally; a rank that panicked
// keeps its chunks from the pool, since a peer unwinding out of a round may
// still be reading through a view of one of them.
func (ws *Workspace) drain() {
	for i, c := range ws.chunks {
		ws.pool.Put(c)
		ws.chunks[i] = nil
	}
	ws.chunks, ws.cur, ws.off = ws.chunks[:0], 0, 0
}
