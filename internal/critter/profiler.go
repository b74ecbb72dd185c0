package critter

import (
	"fmt"

	"critter/internal/channel"
	"critter/internal/mpi"
	"critter/internal/obs"
	"critter/internal/sim"
	"critter/internal/stats"
)

// kernelStats is everything one rank holds about one kernel signature (an
// entry of the set K in the paper's notation): its duration model, its
// execution bookkeeping and its path attribution, one record per KernelTable
// id the rank has touched. Records live exactly as long as the id space that
// names them (startConfig). What depends on the signature itself — the
// prior's moments, the a-priori count — is resolved from its Key-keyed
// source once, when the rank first touches the id (lookup). An interception
// hashes its Key only when it differs from the rank's previous one (intern):
// then the world's KernelTable hashes it, as 24 bytes of plain memory
// (key.go). Everything after works on an id and a record. A record is 72
// bytes (TestProfilerStateLayout): counts are 32-bit, the flags share the
// word the id pads, and the eager policy's coverage lives beside the
// records (Profiler.cover).
type kernelStats struct {
	// propagated marks the kernel globally skippable under the eager
	// policy: its statistics have covered the full processor grid.
	propagated bool
	// pooled marks a live accumulator installed by eager cross-rank
	// aggregation (adoptPooled).
	pooled bool
	// ran marks a kernel executed during the current configuration;
	// non-eager policies require at least one execution per tuning
	// iteration before skipping (Section VI-A).
	ran bool
	// id is the record's KernelTable id (Profiler.slot maps it back here).
	id uint32
	// live accumulates the durations sampled since the last statistics
	// reset; prior is the warm-start profile's accumulator for the signature
	// (empty without one). Queries merge the two (model, estimator.go).
	live, prior stats.Welford
	// apriori is the signature's a-priori count: its entry in the id table
	// SetAprioriFromPath installed (0: none).
	apriori int32
	// localFreq counts the kernel's appearances on this rank during the
	// current configuration (the Local policy's frequency credit); the
	// kernel is on the rank's path this configuration iff it is nonzero.
	localFreq int32
	// pred caches the propagation-point predictability outcomes (predCache).
	pred predCache
}

// Options configures a Profiler.
type Options struct {
	// Policy selects the selective-execution method.
	Policy Policy
	// Eps is the confidence tolerance: a kernel is predictable when its
	// relative confidence interval falls below Eps. Eps <= 0 disables
	// selective execution entirely (full execution; the reference mode).
	Eps float64
	// Extrapolate enables kernel-model extrapolation across input sizes
	// (the line-fitting extension of Section VIII): a computation kernel
	// with an unseen or under-sampled signature may be skipped using a
	// least-squares fit over its routine family's (flops, mean) points.
	Extrapolate bool
	// Prior warm-starts the prediction model from a profile exported by an
	// earlier run (Profiler.ExportProfile / GlobalProfile). The prior
	// survives StartConfig resets: every configuration starts from it. The
	// profiler reads it for as long as it runs; it must not change meanwhile.
	Prior *Profile
}

// Profiler is one rank's profiling state. Create one per rank with New (or
// NewClock, for a caller that never reads its kernels' data), which also
// wraps the rank's world communicator. All ranks must construct their
// Profiler collectively (New performs communication).
//
// Kernel signatures are interned into dense ids through a KernelTable
// shared by every rank of the world, so everything per-invocation (model,
// bookkeeping, local counts, path attribution) is one record per touched id
// (kernelStats) and pathsets propagate between ranks as flat copies into
// recycled buffers. Keys reappear only at the boundaries: a signature's first
// sight in a configuration, eager nominations, profile exports, and reports.
type Profiler struct {
	opts  Options
	world *Comm
	rank  int

	// tab is the world-shared signature interner, the one place ranks
	// resolve a signature or an id. A rank keeps no private copy of it.
	tab *KernelTable
	// lastKey/lastID short-circuit intern for back-to-back invocations of
	// the same kernel signature (the common case inside factorization
	// loops), skipping every map.
	lastKey   Key
	lastID    uint32
	lastValid bool

	// memoArena is the rank's recyclable state (memo.go): the records and
	// their slot index, the eager coverage, the path-table freelist, the
	// archive and the Isend list.
	memoArena
	scratch kernelStats
	path    Pathset
	// freed holds the communicator handles Comm.Free gave back, the last
	// freed on top, for Split to reuse (comm.go).
	freed []*Comm
	// apriori is the global path table SetAprioriFromPath installed, by id of
	// the current interner; inactive when none is. It goes back to free when
	// it is replaced or its ids are (startConfig, Retire).
	apriori kernelCounts

	// lane is the pre-resolved typed-message lane every internal message
	// runs on (one fabric lookup at construction instead of per message):
	// point-to-point votes and replies and the collectives' allreduce. No
	// message on it is timed (comm.go).
	lane mpi.Lane[intMsg]

	// est is the part of the rank's prediction model that is not
	// per-signature (estimator.go): the family fits and the prior.
	est *ciMean
	// extrapolatedSkips counts skips decided by family-model fits.
	extrapolatedSkips int64

	// trace receives kernel-propagation round events. It is non-nil only
	// on rank 0 of a world with an installed tracer (see World.SetTracer)
	// and never on a reference, so the stream is deterministic and the
	// disabled path is one branch.
	trace obs.Tracer

	// memo is the cross-config cache of the world's buffer pool (memo.go).
	memo *kernelMemo
	// clock marks a profiler built by NewClock (NewReference included): its
	// Kernel charges an executed kernel's modeled time and never calls run.
	clock bool
	// reference marks a profiler built by NewReference: a clock that also
	// interns nothing, keeps no per-kernel record and archives nothing.
	reference bool

	// Per-configuration accumulators.
	kernelTime     float64 // time spent actually executing selectable kernels
	compKernelTime float64 // same, computation kernels only
	volCommWords   float64 // local BSP communication (words)
	volSync        float64 // local BSP synchronization (messages)
	volFlops       float64 // local BSP computation (flops)
	executed       int64
	skipped        int64
	replayedSkips  int64 // skips whose predictability decision predCache replayed
}

// predCache memoizes one kernel's propagation-point predictability
// outcomes. Welford.Predictable is pure in (model state, eps, freq) and
// monotone nondecreasing in freq — a larger execution-count credit only
// shrinks the scaled confidence interval — so a single observation in each
// direction bounds the whole frequency axis: predictable at trueAt implies
// predictable at every freq >= trueAt, unpredictable at falseAt implies
// unpredictable at every freq <= falseAt. Zero means "no bound yet" (the
// frequency credit is always >= 1). A record's bounds are dropped when its
// model changes (record, adoptPooled) and every record's when eps changes
// (SetEps); StartConfig's statistics reset drops the records themselves.
type predCache struct {
	trueAt  int32 // minimal freq observed predictable (0: none)
	falseAt int32 // maximal freq observed unpredictable (0: none)
}

// New creates the rank's profiler and wraps its world communicator. It is
// collective over world: an internal duplicate communicator is created for
// piggyback traffic, and rank 0's KernelTable is adopted by every rank. The
// profiler keeps its cross-config state in the memo of its world's buffer
// pool (memo.go), adopting the arena a retired profiler of the same world
// rank left there.
func New(world *mpi.Comm, opts Options) (*Profiler, *Comm) {
	return newProfiler(world, opts, false, false)
}

// NewClock is New for a caller that reads only the profiler's reports, path
// tables and profiles, never the data its kernels write: Kernel does all an
// execution does — the Compute(flops) charge with its noise draw and clock
// advance, the sample, the family fit — but never calls the kernel's run,
// so the profiler runs no arithmetic. Every report, path table and profile
// equals that of a New profiler on the same program, since none of them
// reads a kernel's data (and no library branches on it). The error of an
// intercepted factorization (Potrf, Trtri, GetrfNoPiv) is nil on a clock.
//
// A clock marks its world cost-only (mpi.World.MarkCostOnly) for the rest of
// the world's run: its communication charges time and moves no data, and
// the libraries built on it keep no numbers — their workspaces and tiles are
// views of the world's one scratch, and their input fills are skipped.
// Every rank of a world builds a clock or none does.
func NewClock(world *mpi.Comm, opts Options) (*Profiler, *Comm) {
	world.World().MarkCostOnly()
	return newProfiler(world, opts, true, false)
}

// NewReference creates the profiler a reference execution runs under — the
// full execution every selective one is judged against: NewClock with the
// Conditional policy and tolerance zero. It is collective like New.
// A reference is only ever asked for its Reports, so beyond running no
// arithmetic it interns no signature, keeps no per-kernel record and sets
// nothing aside, so ExportProfile and GlobalProfile on it are empty and
// KernelCount is 0. It emits no trace events, so a run's trace does not
// depend on which of its sweeps ran a reference. Its StartConfigKeyed
// neither takes nor makes the memo's interner: the first selective run of a
// configuration does. With nothing to recycle either, it adopts no arena,
// and its Retire does nothing.
func NewReference(world *mpi.Comm) (*Profiler, *Comm) {
	world.World().MarkCostOnly()
	return newProfiler(world, Options{Policy: Conditional, Eps: 0}, true, true)
}

// newProfiler is New, NewClock and NewReference: the flags are set before
// anything reads them, so a reference never adopts an arena.
func newProfiler(world *mpi.Comm, opts Options, clock, reference bool) (*Profiler, *Comm) {
	p := &Profiler{
		opts:      opts,
		rank:      world.Rank(),
		memo:      mpi.Pooled[kernelMemo](world.World().BufPoolOf()),
		clock:     clock,
		reference: reference,
	}
	// Adopt a retired profiler's arena before allocating anything it could
	// supply: the records, the path-frequency buffers, the archive's slabs
	// and the Isend list.
	p.est = newCIMean(opts.Extrapolate)
	if !reference {
		p.memoArena = p.memo.takeArena(p.rank)
		p.path.Kernels = kernelCounts{vals: p.free.get()}
	}
	if opts.Prior != nil {
		p.est.loadPrior(opts.Prior)
	}
	ch, ok := channel.FromGroup(world.Group())
	internal := world.Dup()
	// Adopt one shared signature interner per world: rank 0 creates it,
	// the hand-off (untimed, clock-neutral at construction) gives it to all.
	var mine *KernelTable
	if p.rank == 0 {
		mine = NewKernelTable()
	}
	p.tab = mpi.BcastMsg(internal, mine)
	p.lane = mpi.LaneOf[intMsg](world.World())
	if p.rank == 0 && !reference {
		p.trace = world.World().TracerOf()
	}
	cc := &Comm{
		p:        p,
		user:     world,
		internal: internal,
		ch:       ch,
		chOK:     ok,
	}
	p.world = cc
	return p, cc
}

// Policy returns the active selective-execution policy.
func (p *Profiler) Policy() Policy { return p.opts.Policy }

// Eps returns the active confidence tolerance.
func (p *Profiler) Eps() float64 { return p.opts.Eps }

// World returns the wrapped world communicator.
func (p *Profiler) World() *Comm { return p.world }

// Table returns the world-shared kernel-signature interner.
func (p *Profiler) Table() *KernelTable { return p.tab }

// intern resolves key's dense id: the previous signature answers a repeat,
// and the world's table answers the rest, assigning an id on the signature's
// first sight anywhere in the world.
func (p *Profiler) intern(key Key) uint32 {
	if p.lastValid && key == p.lastKey {
		return p.lastID
	}
	id := p.tab.Intern(key)
	p.lastKey, p.lastID, p.lastValid = key, id, true
	return id
}

// growCap sizes an id-indexed table that must hold n entries: double the
// outgrown capacity c, bounded below by n (and a small floor).
func growCap(n, c int) int {
	c *= 2
	if c < n {
		c = n
	}
	if c < 16 {
		c = 16
	}
	return c
}

// lookup interns key and returns its id and record. On the signature's first
// sight since the records were last dropped the rank appends its record,
// resolving what it holds by Key. The pointer is invalidated by the next
// lookup that appends a record.
func (p *Profiler) lookup(key Key) (uint32, *kernelStats) {
	id := p.intern(key)
	if n := int(id) + 1; n > len(p.slot) {
		p.grow(n)
	}
	if s := p.slot[id]; s != 0 {
		return id, &p.k[s-1]
	}
	if n := len(p.k); n == cap(p.k) {
		// growCap's floor, not append's growth from one record.
		p.k = append(make([]kernelStats, 0, growCap(n+1, n)), p.k...)
	}
	p.k = append(p.k, kernelStats{id: id, prior: p.est.priorOf(key), apriori: p.aprioriOf(id)})
	p.slot[id] = uint32(len(p.k))
	if p.opts.Policy == Eager {
		p.growCover()
	}
	return id, &p.k[len(p.k)-1]
}

// growCover pads the eager coverage to one channel per record: a record
// appended under the eager policy, or every record seen before a switch to
// it (SetPolicy), starts with the empty channel.
func (p *Profiler) growCover() {
	if n := len(p.k) - len(p.cover); n > 0 {
		p.cover = append(p.cover, make([]channel.Channel, n)...)
	}
}

// grow extends the slot index to n > len entries.
func (p *Profiler) grow(n int) {
	if n <= cap(p.slot) {
		// The backing array is allocated zeroed and cleared in place on
		// reset (and before arena donation), so extending within capacity
		// exposes untouched slots.
		p.slot = p.slot[:n]
		return
	}
	slot := make([]uint32, n, growCap(n, cap(p.slot)))
	copy(slot, p.slot)
	p.slot = slot
}

// intercept is lookup for a kernel invocation: it also counts one appearance
// of the kernel along the rank's execution path. A reference resolves no id
// and hands out its scratch record.
func (p *Profiler) intercept(key Key) (uint32, *kernelStats) {
	if p.reference {
		return 0, &p.scratch
	}
	id, ks := p.lookup(key)
	p.path.Kernels.incr(id)
	ks.localFreq = countUp(ks.localFreq)
	return id, ks
}

// at returns the record intercept returned for id, for a caller whose
// pointer a later intercept may have invalidated.
func (p *Profiler) at(id uint32) *kernelStats {
	if p.reference {
		return &p.scratch
	}
	return &p.k[p.slot[id]-1]
}

// KernelCount returns the number of distinct kernel signatures profiled so
// far on this rank.
func (p *Profiler) KernelCount() int { return len(p.k) }

// modelOf returns key's combined model for the report accessors: its record's
// when this rank has profiled the signature, the bare prior otherwise. It
// interns nothing.
func (p *Profiler) modelOf(key Key) stats.Welford {
	if id, ok := p.tab.lookup(key); ok && int(id) < len(p.slot) && p.slot[id] != 0 {
		return p.k[p.slot[id]-1].model()
	}
	return p.est.priorOf(key)
}

// Mean returns the modeled mean duration for key (0 if never sampled; a
// warm-started model answers from its prior before the first sample).
func (p *Profiler) Mean(key Key) float64 {
	m := p.modelOf(key)
	return m.Mean()
}

// Samples returns the number of duration samples backing key's model.
func (p *Profiler) Samples(key Key) int64 {
	m := p.modelOf(key)
	return m.Count()
}

// pathFreqMap rekeys a dense frequency table by Key for the map-facing
// boundaries. Ids may have been interned by any rank, so the shared table
// resolves them.
func (p *Profiler) pathFreqMap(kc kernelCounts) map[Key]int64 {
	out := make(map[Key]int64)
	for id, v := range kc.vals {
		if v != 0 {
			out[p.tab.KeyOf(uint32(id))] = int64(v)
		}
	}
	return out
}

// PathFreqs returns a copy of the rank's current path frequency table.
func (p *Profiler) PathFreqs() map[Key]int64 {
	return p.pathFreqMap(p.path.Kernels)
}

// freqFor returns the execution-count credit the active policy grants when
// sizing the kernel's confidence interval.
func (p *Profiler) freqFor(id uint32, ks *kernelStats) int64 {
	switch p.opts.Policy {
	case Local:
		return int64(ks.localFreq)
	case Online:
		return p.path.Kernels.get(id)
	case APriori:
		if ks.apriori > 0 {
			return int64(ks.apriori)
		}
	}
	return 1
}

// shouldExecute decides whether the kernel must actually run. For the eager
// policy the decision is the global propagation flag; for all other
// policies the kernel must have executed at least once this configuration
// and is skipped only when predictable at tolerance Eps under the policy's
// frequency credit. A skip replayed from the record's predCache reports
// replayed and is counted (Report.Memoized).
func (p *Profiler) shouldExecute(id uint32, ks *kernelStats) (exec, replayed bool) {
	if p.opts.Eps <= 0 {
		return true, false
	}
	if p.opts.Policy == Eager {
		return !ks.propagated, false
	}
	if !ks.ran {
		return true, false
	}
	pred, hit := p.predictable(ks, p.freqFor(id, ks))
	if pred && hit {
		p.replayedSkips++
	}
	return !pred, pred && hit
}

// predictable answers the propagation-point CI tolerance test through the
// record's decision cache, reporting whether the answer was replayed. The
// steady-state skip path — a converged signature re-encountered with an
// ever-growing frequency credit — reduces to two integer compares. Every
// credit freqFor grants is a 32-bit count or 1, so the bounds hold it.
func (p *Profiler) predictable(ks *kernelStats, freq int64) (pred, hit bool) {
	c := &ks.pred
	if c.trueAt != 0 && freq >= int64(c.trueAt) {
		return true, true
	}
	if c.falseAt != 0 && freq <= int64(c.falseAt) {
		return false, true
	}
	m := ks.model()
	pred = m.Predictable(p.opts.Eps, freq)
	if pred {
		if c.trueAt == 0 || freq < int64(c.trueAt) {
			c.trueAt = int32(freq)
		}
	} else if freq > int64(c.falseAt) {
		c.falseAt = int32(freq)
	}
	return pred, false
}

// record incorporates one measured duration: the per-configuration execution
// counters advance, and the kernel's live accumulator takes the sample. The
// sample changes the model, so the cached predictability bounds are dropped.
// A reference keeps no model: Report reads only its counters.
func (p *Profiler) record(ks *kernelStats, dt float64) {
	p.executed++
	p.kernelTime += dt
	if p.reference {
		return
	}
	ks.live.Add(dt)
	ks.pred = predCache{}
	ks.ran = true
}

// settle is the tail of every interception once the execution decision is
// final: an executing kernel runs — run performs it and returns its measured
// duration — and is recorded; a skipped one is charged its modeled mean. It
// returns the duration to charge to the path.
func (p *Profiler) settle(ks *kernelStats, exec bool, run func() float64) float64 {
	if !exec {
		p.skipped++
		m := ks.model()
		return m.Mean()
	}
	dt := run()
	p.record(ks, dt)
	return dt
}

// snapshot captures the rank's pathset for an internal message. Under
// policies that propagate counts the message carries its own copy of the
// frequency table, made into a recycled buffer; otherwise it carries none.
func (p *Profiler) snapshot() Pathset {
	ps := p.path
	if p.opts.Policy == Online {
		ps.Kernels = p.path.Kernels.copyInto(p.free.get(), p.tab)
	} else {
		ps.Kernels = kernelCounts{}
	}
	return ps
}

// adopt installs a received pathset: metrics are max-merged; the frequency
// table, when propagated, replaces the local one wholesale (the local path
// joins the sender's sub-critical path). The caller hands over g's table —
// this rank is its sole owner from here on — and the table it replaces goes
// to the freelist for the next snapshot. After a collective g is the merged
// global pathset and its table the longest path's; after a point-to-point
// exchange it is the peer's, taken whether or not the peer's path is the
// longer one. A collective adopts before it charges its leg, a point-to-point
// op after (Profiler.complete says why); an Isend adopts nothing, and
// Waitall adopts each Isend's reply in posting order.
func (p *Profiler) adopt(g Pathset) {
	kernels := p.path.Kernels
	if g.Kernels.active() {
		p.free.put(kernels)
		kernels = g.Kernels
	}
	p.path = Pathset{
		ExecTime: max(p.path.ExecTime, g.ExecTime),
		CompTime: max(p.path.CompTime, g.CompTime),
		CommTime: max(p.path.CommTime, g.CommTime),
		BSPComm:  max(p.path.BSPComm, g.BSPComm),
		BSPSync:  max(p.path.BSPSync, g.BSPSync),
		BSPComp:  max(p.path.BSPComp, g.BSPComp),
		Kernels:  kernels,
	}
}

// Kernel intercepts one computation kernel invocation: name and dims form
// the signature, flops drives the machine model, and run performs the
// actual numerics. When the kernel is deemed predictable, run is not called
// and the model mean is charged to the pathset instead of virtual time.
// A clock (NewClock, NewReference) never calls run, not even for a kernel it
// executes: the charge, its noise draw, the clock advance and the sample are
// those of an execution. It returns the duration charged to the path. It
// panics like CompKey.
func (p *Profiler) Kernel(name string, d1, d2, d3, d4 int, flops float64, run func()) float64 {
	return p.kernel(internName(name), d1, d2, d3, d4, flops, run)
}

// kernel is Kernel for a routine already interned; the BLAS and LAPACK
// wrappers call it with package-level handles.
func (p *Profiler) kernel(name kernelName, d1, d2, d3, d4 int, flops float64, run func()) float64 {
	id, ks := p.intercept(compKey(name, d1, d2, d3, d4))
	exec, _ := p.shouldExecute(id, ks)
	// Line-fitting extension: an under-sampled signature may still be
	// skipped, charged its routine family's fit, when that is trustworthy.
	fit, fitted := 0.0, false
	if exec && p.opts.Eps > 0 && flops > 0 {
		if fit, fitted = p.est.extrapolate(name, flops, p.opts.Eps); fitted {
			m := ks.model()
			fitted = !m.Predictable(p.opts.Eps, p.freqFor(id, ks))
		}
	}
	var dt float64
	if fitted {
		dt = fit
		p.skipped++
		p.extrapolatedSkips++
	} else {
		dt = p.settle(ks, exec, func() float64 {
			dt := p.world.user.Compute(flops)
			if !p.clock {
				run()
			}
			return dt
		})
		if exec {
			p.compKernelTime += dt
			p.est.observe(name, flops, ks, p.opts.Eps)
		}
	}
	p.path.ExecTime += dt
	p.path.CompTime += dt
	p.path.BSPComp += flops
	p.volFlops += flops
	return dt
}

// StartConfig begins a new tuning configuration: the pathset, per-config
// counters, and volumetric accumulators are cleared, virtual clocks are
// reset collectively, and — when resetStats is true — all kernel models are
// discarded (the paper resets statistics between configurations of SLATE's
// and CANDMC's algorithms; eager propagation keeps its models to reuse them
// across configurations). Collective over the world communicator.
//
// The records are cleared in place, so the steady state across
// configurations allocates nothing.
func (p *Profiler) StartConfig(resetStats bool) {
	p.startConfig(resetStats, 0, false)
}

// StartConfigKeyed is StartConfig for a configuration with a stable identity
// (critter.ConfigKey): with the statistics reset in effect, the
// configuration interns into the one table the world's buffer pool holds for
// it in a world of the same size (memo.go): the table the first such run made
// and registered there, which this run adopts or, being first, makes.
// Byte-identical in results to StartConfig always.
func (p *Profiler) StartConfigKeyed(resetStats bool, cfg uint64) {
	p.startConfig(resetStats, cfg, true)
}

// tabMsg is the payload of StartConfig's alignment round: the interner to
// distribute — a fresh one or the memo's for the key — and its length as rank
// 0 read it before the round (tab is nil on every rank but 0, and on rank 0
// when ids are not being reset). Every rank presizes its records by n, not
// by the table's length after the round, which other ranks may already be
// growing.
type tabMsg struct {
	tab *KernelTable
	n   int
}

func (p *Profiler) startConfig(resetStats bool, cfg uint64, keyed bool) {
	resetIDs := resetStats && p.opts.Policy != Eager
	// Align ranks before resetting clocks. When the records are about to be
	// discarded anyway, the same round distributes the next shared
	// interner, so dense ids stay as compact as the configuration's active
	// kernel set instead of accumulating across configurations (every
	// path-frequency snapshot copies up to the id high-water mark). For a
	// keyed configuration rank 0 takes the memo's table for the key, which
	// an earlier profiler may already have filled. A reference, which
	// interns nothing, sends no table and keeps its empty one.
	var msg tabMsg
	if keyed {
		// A memo outlives one run, and a study keeps its name across scales:
		// the world size keeps quick and default scale apart, so neither grows
		// the ids of the tables the other adopts.
		cfg = sim.Mix(cfg, uint64(p.world.user.Size()))
	}
	if resetIDs && p.rank == 0 && !p.reference {
		if keyed {
			msg.tab = p.memo.table(cfg)
		} else {
			msg.tab = NewKernelTable()
		}
		msg.n = msg.tab.Len()
	}
	g := mpi.BcastMsg(p.world.internal, msg)
	p.world.user.ResetClock()
	p.archivePathFreqs() // resolves ids through the outgoing table
	p.kernelTime, p.compKernelTime = 0, 0
	p.volCommWords, p.volSync, p.volFlops = 0, 0, 0
	p.executed, p.skipped, p.replayedSkips = 0, 0, 0
	if resetIDs {
		// Archive what the model learned before wiping it, so the run's
		// exported profile spans every configuration. (Without a reset the
		// live model state persists and is merged at export time instead —
		// archiving it here would double-count samples.) The live
		// accumulators themselves go with the records, below.
		p.archiveEstimator()
		p.est.reset()
		p.extrapolatedSkips = 0
		if g.tab != nil {
			p.tab = g.tab
		}
		// Empty the records and the id-indexed tables down to zero length
		// (capacity kept) so they regrow to the new, compact id range.
		p.lastValid = false
		clear(p.k)
		clear(p.slot)
		clear(p.cover)
		p.k, p.slot, p.cover = p.k[:0], p.slot[:0], p.cover[:0]
		// A-priori counts by id mean nothing under the next interner.
		p.free.put(p.apriori)
		p.apriori = kernelCounts{}
		// The table's stale tail is cleared as it regrows (materialize).
		p.path = Pathset{Kernels: kernelCounts{vals: p.path.Kernels.vals[:0]}}
		if g.n > 0 {
			// A filled table knows the configuration's id range up front: size
			// the slot index once instead of growing it kernel by kernel.
			p.grow(g.n)
		}
		return
	}
	kc := p.path.Kernels
	kc.reset()
	p.path = Pathset{Kernels: kc}
	for i := range p.k {
		p.k[i].ran, p.k[i].localFreq = false, 0
	}
}

// SetEps changes the confidence tolerance (used by sweeps reusing one
// profiler). Cached predictability decisions are bound to the tolerance
// they were made under, so every record's are dropped.
func (p *Profiler) SetEps(eps float64) {
	p.opts.Eps = eps
	for i := range p.k {
		p.k[i].pred = predCache{}
	}
}

// SetPolicy changes the selective-execution policy (used by the a-priori
// method, whose offline pass runs under online propagation).
func (p *Profiler) SetPolicy(pol Policy) { p.opts.Policy = pol }

// ExtrapolatedSkips returns how many kernel invocations were skipped via
// family-model extrapolation rather than their own signature's model.
func (p *Profiler) ExtrapolatedSkips() int64 { return p.extrapolatedSkips }

// SetAprioriFromPath installs the configuration's critical-path counts for
// the APriori policy: the path frequency table of the rank with the maximal
// predicted execution time, the table GlobalPathFreqs returns, kept by
// kernel id instead of rekeyed by Key. It replaces any table installed
// before and re-resolves the records of the kernels already seen; a kernel first seen
// later reads its count from the same table. Collective over world.
//
// The counts hold while the kernel ids do: a statistics reset that swaps the
// interner (StartConfig(true) under a non-eager policy) drops them, and the
// next SetAprioriFromPath replaces them. This is how a sweep seeds the a-priori pass
// from its offline pass (StartConfig(false) between the two keeps the ids).
func (p *Profiler) SetAprioriFromPath() {
	g := p.globalPath()
	p.free.put(p.apriori)
	p.apriori = g
	p.resolveApriori()
}

// resolveApriori re-reads the a-priori count of every kernel already seen.
func (p *Profiler) resolveApriori() {
	for i := range p.k {
		p.k[i].apriori = p.aprioriOf(p.k[i].id)
	}
}

// aprioriOf returns id's entry in the installed a-priori table, a 32-bit
// count like every path table's, so the narrowing is exact.
func (p *Profiler) aprioriOf(id uint32) int32 { return int32(p.apriori.get(id)) }

// Report summarizes the configuration run. Collective over the world
// communicator: critical-path metrics and kernel-time maxima reduce with
// max, volumetric metrics average over ranks.
type Report struct {
	Predicted     float64 `json:"Predicted"`     // predicted execution time (max rank pathset)
	PredictedComp float64 `json:"PredictedComp"` // predicted critical-path computation time
	PredictedComm float64 `json:"PredictedComm"` // predicted critical-path communication time
	Wall          float64 `json:"Wall"`          // actual virtual time consumed (max rank clock)
	BSPCommCrit   float64 `json:"BSPCommCrit"`   // critical-path BSP communication (words)
	BSPSyncCrit   float64 `json:"BSPSyncCrit"`   // critical-path BSP synchronization (messages)
	BSPCompCrit   float64 `json:"BSPCompCrit"`   // critical-path BSP computation (flops)
	BSPCommVol    float64 `json:"BSPCommVol"`    // volumetric-average BSP communication
	BSPSyncVol    float64 `json:"BSPSyncVol"`    // volumetric-average BSP synchronization
	BSPCompVol    float64 `json:"BSPCompVol"`    // volumetric-average BSP computation
	KernelTime    float64 `json:"KernelTime"`    // max over ranks: time executing selectable kernels
	CompKernel    float64 `json:"CompKernel"`    // max over ranks: time executing compute kernels
	Executed      int64   `json:"Executed"`      // total kernel executions across ranks
	Skipped       int64   `json:"Skipped"`       // total kernel skips across ranks
	// Memoized counts the skips (across ranks) whose predictability
	// decision was replayed from the kernel's record (predCache) rather
	// than re-derived from the model; always <= Skipped. The cache is the
	// profiler's own, not the buffer pool's kernel memo (memo.go); the
	// sweep sums this count into autotune.SweepResult.KernelsMemoized.
	// Excluded from serialized envelopes: the count is observational and
	// must not perturb golden artifacts.
	Memoized int64 `json:"-"`
}

// reportMsg carries one rank's report contributions through the single
// fused reduction round: maxes reduce elementwise by max, sums by +.
type reportMsg struct {
	maxes [9]float64
	sums  [6]float64
}

// mergeReport folds report contributions in comm-rank order — elementwise
// max and left-to-right sums, the exact fold the former pair of untimed
// allreduces performed.
func mergeReport(a, b reportMsg) reportMsg {
	for i := range a.maxes {
		a.maxes[i] = max(a.maxes[i], b.maxes[i])
	}
	for i := range a.sums {
		a.sums[i] += b.sums[i]
	}
	return a
}

// Report gathers the configuration summary; collective over world. The max
// and sum reductions share one untimed round (clock- and noise-neutral:
// untimed rounds advance every rank to the same entry maximum and draw no
// randomness, so fusing them leaves virtual time bit-identical).
func (p *Profiler) Report() Report {
	local := reportMsg{
		maxes: [9]float64{
			p.path.ExecTime, p.path.CompTime, p.path.CommTime,
			p.path.BSPComm, p.path.BSPSync, p.path.BSPComp,
			p.world.user.Clock(), p.kernelTime, p.compKernelTime,
		},
		sums: [6]float64{
			p.volCommWords, p.volSync, p.volFlops,
			float64(p.executed), float64(p.skipped),
			float64(p.replayedSkips),
		},
	}
	g := mpi.AllreduceMsg(p.world.internal, local, mergeReport)
	maxes, sums := g.maxes, g.sums
	fp := float64(p.world.user.Size())
	return Report{
		Predicted:     maxes[0],
		PredictedComp: maxes[1],
		PredictedComm: maxes[2],
		BSPCommCrit:   maxes[3],
		BSPSyncCrit:   maxes[4],
		BSPCompCrit:   maxes[5],
		Wall:          maxes[6],
		KernelTime:    maxes[7],
		CompKernel:    maxes[8],
		BSPCommVol:    sums[0] / fp,
		BSPSyncVol:    sums[1] / fp,
		BSPCompVol:    sums[2] / fp,
		Executed:      int64(sums[3]),
		Skipped:       int64(sums[4]),
		Memoized:      int64(sums[5]),
	}
}

// Retire donates the profiler's recyclable per-rank state to the memo of
// its world's buffer pool — the records, the path-frequency table and its
// spare buffers, the archive's slabs and the Isend list — for the next
// profiler of the same world rank on the same pool to adopt. The profiler
// must not be used afterwards. A no-op on a reference, which holds nothing
// to donate. Call it per rank once the sweep is done with the profiler
// (after the final Report / GlobalProfile).
func (p *Profiler) Retire() {
	if p.reference {
		return
	}
	// The a-priori table and the path table have no other holder; the path
	// table goes on the freelist last, so the adopter counts into it.
	p.free.put(p.apriori)
	p.free.put(p.path.Kernels)
	p.memo.putArena(p.rank, p.memoArena.recycled())
	// Sever the donated state so accidental reuse fails loudly instead of
	// corrupting the adopter.
	p.memo, p.memoArena = nil, memoArena{}
	p.path.Kernels, p.apriori, p.lastValid = kernelCounts{}, kernelCounts{}, false
}

// GlobalPathFreqs merges the final path frequency tables across ranks,
// returning the table of the rank with the maximal predicted execution time
// (the configuration's critical path), rekeyed by Key. Collective over world.
// SetAprioriFromPath installs the same counts for the APriori policy without
// the rekeying.
func (p *Profiler) GlobalPathFreqs() map[Key]int64 {
	g := p.globalPath()
	freqs := p.pathFreqMap(g)
	p.free.put(g)
	return freqs
}

// globalPath is the round behind GlobalPathFreqs and SetAprioriFromPath: a
// copy of the rank's path table, made into a buffer from the freelist, goes
// into the internal allreduce, and the winning table comes back, owned by the
// caller (in that buffer when it fits; see propagate).
func (p *Profiler) globalPath() kernelCounts {
	ps := p.path
	ps.Kernels = p.path.Kernels.copyInto(p.free.get(), p.tab)
	return p.lane.Allreduce(p.world.internal, intMsg{Path: ps}, propagate).Path.Kernels
}

func (p *Profiler) String() string {
	return fmt.Sprintf("critter.Profiler{rank=%d, policy=%s, eps=%g, kernels=%d}",
		p.rank, p.opts.Policy, p.opts.Eps, len(p.k))
}
