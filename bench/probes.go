package main

// Layer probes: a fixed number of calls into each layer's public
// functions, timed from outside. They say how fast a layer is on its own;
// the workloads say how much that matters. Every probe does the same work
// whatever the seed, and reports the median of three timings.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"critter/internal/autotune"
	"critter/internal/blas"
	"critter/internal/critter"
	"critter/internal/lapack"
	"critter/internal/mpi"
	"critter/internal/obs"
	"critter/internal/service"
	"critter/internal/sim"
	"critter/internal/stats"
	"critter/internal/store"
	"critter/internal/surrogate"
	registry "critter/internal/workload"
)

// probeSink defeats dead-code elimination of probe bodies.
var probeSink float64

// timeMedian3 times f three times and returns the median seconds.
func timeMedian3(f func()) float64 {
	var ts [3]float64
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts[:])
}

// perCall times n calls of f, three times over, and returns the median
// time per call scaled by unit (1e9 for ns, 1e6 for us, 1e3 for ms).
func perCall(n int, unit float64, f func()) float64 {
	return unit * timeMedian3(func() {
		for i := 0; i < n; i++ {
			f()
		}
	}) / float64(n)
}

// inWorld runs body on every rank of a fresh world of the given size and
// returns the wall time of the whole run; probes put n operations inside
// so the world's set-up is amortized away.
func inWorld(size int, body func(c *mpi.Comm)) (float64, error) {
	var err error
	secs := timeMedian3(func() {
		w := mpi.NewWorld(size, benchMachine(), 1)
		if e := w.Run(body); e != nil {
			err = e
		}
	})
	return secs, err
}

// probeSet is every layer probe's result.
type probeSet map[string]float64

func runProbes(ctx context.Context, env *runEnv) (probeSet, error) {
	ps := probeSet{}
	steps := []func(context.Context, *runEnv, probeSet) error{
		probeSimStats, probeNumerics, probeMPI, probeCritter, probeLibs,
		probeAutotune, probeScaling, probeSurrogateWorkload, probeStore, probeService, probeObs,
	}
	for _, step := range steps {
		if err := step(ctx, env, ps); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

func probeSimStats(_ context.Context, _ *runEnv, ps probeSet) error {
	m := benchMachine()
	rng := sim.NewRNG(7)
	ps["sim.noise_ns"] = perCall(1_000_000, 1e9, func() { probeSink += m.Noise(rng) })
	var w stats.Welford
	i := 0
	ps["stats.welford_add_ns"] = perCall(2_000_000, 1e9, func() { i++; w.Add(float64(i % 17)) })
	ps["stats.predictable_ns"] = perCall(2_000_000, 1e9, func() {
		i++
		if w.Predictable(0.125, int64(1+i%4)) {
			probeSink++
		}
	})
	return nil
}

// fillMatrix writes a deterministic, well-conditioned n x n matrix.
func fillMatrix(a []float64, n int, spd bool) {
	rng := sim.NewRNG(uint64(n))
	for i := range a {
		a[i] = rng.Float64() - 0.5
	}
	if spd {
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				a[i+j*n] = a[j+i*n]
			}
			a[i+i*n] += float64(n)
		}
	}
}

func probeNumerics(_ context.Context, _ *runEnv, ps probeSet) error {
	const n = 64
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	fillMatrix(a, n, false)
	fillMatrix(b, n, false)
	gflops := func(flops float64, calls int, f func()) float64 {
		return flops / perCall(calls, 1e9, f) // flops per ns = Gflop/s
	}
	ps["blas.dgemm_n8_ns"] = perCall(20000, 1e9, func() {
		blas.Dgemm(false, false, 8, 8, 8, 1, a, n, b, n, 0, c, n)
	})
	ps["blas.dgemm_n64_gflops"] = gflops(lapack.GemmFlops(n, n, n), 100, func() {
		blas.Dgemm(false, false, n, n, n, 1, a, n, b, n, 0, c, n)
	})
	ps["blas.dsyrk_n64_gflops"] = gflops(lapack.SyrkFlops(n, n), 100, func() {
		blas.Dsyrk(blas.Lower, false, n, n, 1, a, n, 0, c, n)
	})
	tri := make([]float64, n*n)
	fillMatrix(tri, n, true)
	ps["blas.dtrsm_n64_gflops"] = gflops(lapack.TrsmFlops(true, n, n), 100, func() {
		copy(c, b)
		blas.Dtrsm(blas.Left, blas.Lower, false, blas.NonUnit, n, n, 1, tri, n, c, n)
	})
	var err error
	ps["lapack.potrf_n64_gflops"] = gflops(lapack.PotrfFlops(n), 100, func() {
		copy(c, tri)
		if e := lapack.Dpotrf(n, c, n); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("probe potrf: %w", err)
	}
	const ib = 8
	tmat, tau := make([]float64, ib*n), make([]float64, n)
	ps["lapack.geqrt_n64_gflops"] = gflops(lapack.GeqrfFlops(n, n), 50, func() {
		copy(c, a)
		lapack.Dgeqrt(n, n, ib, c, n, tmat, ib, tau)
	})
	r := make([]float64, n*n)
	ps["lapack.tpqrt_n64_gflops"] = gflops(lapack.TpqrtFlops(n, n), 50, func() {
		for j := 0; j < n; j++ { // upper triangle of tri, zero below
			for i := 0; i < n; i++ {
				if i <= j {
					r[i+j*n] = tri[i+j*n]
				} else {
					r[i+j*n] = 0
				}
			}
		}
		copy(c, b)
		lapack.Dtpqrt(n, n, ib, r, n, c, n, tmat, ib)
	})
	probeSink += c[0]
	return nil
}

func probeMPI(_ context.Context, _ *runEnv, ps probeSet) error {
	secs, err := inWorld(8, func(c *mpi.Comm) {})
	if err != nil {
		return fmt.Errorf("probe world: %w", err)
	}
	ps["mpi.world_run_us"] = secs * 1e6

	collective := func(name string, size, n int, op func(c *mpi.Comm, in, out []float64)) error {
		secs, err := inWorld(size, func(c *mpi.Comm) {
			in, out := make([]float64, 64), make([]float64, 64)
			for i := 0; i < n; i++ {
				op(c, in, out)
			}
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		ps[name] = secs * 1e9 / float64(n)
		return nil
	}
	const rounds = 20000
	secs, err = inWorld(2, func(c *mpi.Comm) {
		buf := make([]float64, 128)
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 1, buf)
			} else {
				c.Recv(0, 0, buf)
				c.Send(0, 1, buf)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("probe pingpong: %w", err)
	}
	ps["mpi.pingpong_ns"] = secs * 1e9 / rounds
	allreduce := func(c *mpi.Comm, in, out []float64) { c.Allreduce(in, out, mpi.OpSum) }
	if err := collective("mpi.allreduce8_ns", 8, 5000, allreduce); err != nil {
		return err
	}
	if err := collective("mpi.allreduce64_ns", 64, 500, allreduce); err != nil {
		return err
	}
	if err := collective("mpi.bcast8_ns", 8, 5000, func(c *mpi.Comm, in, _ []float64) { c.Bcast(0, in) }); err != nil {
		return err
	}
	const splits = 500
	secs, err = inWorld(8, func(c *mpi.Comm) {
		for i := 0; i < splits; i++ {
			c.Split(c.Rank()%2, c.Rank())
		}
	})
	if err != nil {
		return fmt.Errorf("probe split: %w", err)
	}
	ps["mpi.split_us"] = secs * 1e6 / splits
	return nil
}

// probeProfile is a real exported profile: what one quick candmc sweep
// learned.
func probeProfile(ctx context.Context) (*critter.Profile, *autotune.Result, autotune.Study, error) {
	st, err := resolveStudy("candmc", "quick")
	if err != nil {
		return nil, nil, st, err
	}
	res, err := autotune.Tuner{
		Study: st, EpsList: []float64{0.125}, Policies: []critter.Policy{critter.Online},
		Machine: benchMachine(), Seed: goldenSeed, Workers: 1,
	}.Run(ctx)
	if err != nil {
		return nil, nil, st, fmt.Errorf("probe profile: %w", err)
	}
	return res.Sweeps[0][0].Profile, res, st, nil
}

func probeCritter(ctx context.Context, _ *runEnv, ps probeSet) error {
	const calls = 200000
	kernel := func(name string, eps float64, wantSkips bool) error {
		var skipped int64
		secs, err := inWorld(1, func(c *mpi.Comm) {
			p, _ := critter.New(c, critter.Options{Policy: critter.Conditional, Eps: eps})
			for i := 0; i < calls; i++ {
				p.Kernel("probe", 8, 8, 8, 0, 1e3, func() {})
			}
			skipped = p.Report().Skipped
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		if wantSkips != (skipped > calls/2) {
			return fmt.Errorf("probe %s: %d of %d kernels skipped", name, skipped, calls)
		}
		ps[name] = secs * 1e9 / calls
		return nil
	}
	if err := kernel("critter.kernel_exec_ns", 0, false); err != nil {
		return err
	}
	if err := kernel("critter.kernel_skip_ns", 0.5, true); err != nil {
		return err
	}

	const rounds = 5000
	secs, err := inWorld(8, func(c *mpi.Comm) {
		_, cc := critter.New(c, critter.Options{Policy: critter.Online, Eps: 0})
		in, out := make([]float64, 64), make([]float64, 64)
		for i := 0; i < rounds; i++ {
			cc.Allreduce(in, out, mpi.OpSum)
		}
	})
	if err != nil {
		return fmt.Errorf("probe critter allreduce: %w", err)
	}
	ps["critter.allreduce8_ns"] = secs * 1e9 / rounds
	ps["critter.intercept_overhead_x"] = ps["critter.allreduce8_ns"] / ps["mpi.allreduce8_ns"]

	// StartConfig and Report are collective; time them on an 8-rank world
	// with 32 kernel models per configuration (the 32 kernel calls ride
	// along in startconfig_us; they are a few microseconds).
	const configs = 300
	kernels := func(p *critter.Profiler) {
		for k := 0; k < 32; k++ {
			p.Kernel("probe", 8+k, 8, 8, 0, 1e3, func() {})
		}
	}
	secs, err = inWorld(8, func(c *mpi.Comm) {
		p, _ := critter.New(c, critter.Options{Policy: critter.Online, Eps: 0.125})
		for i := 0; i < configs; i++ {
			p.StartConfig(true)
			kernels(p)
		}
	})
	if err != nil {
		return fmt.Errorf("probe startconfig: %w", err)
	}
	ps["critter.startconfig_us"] = secs * 1e6 / configs
	secs, err = inWorld(8, func(c *mpi.Comm) {
		p, _ := critter.New(c, critter.Options{Policy: critter.Online, Eps: 0.125})
		p.StartConfig(true)
		kernels(p)
		for i := 0; i < configs; i++ {
			probeSink += p.Report().Wall
		}
	})
	if err != nil {
		return fmt.Errorf("probe report: %w", err)
	}
	ps["critter.report_us"] = secs * 1e6 / configs

	const exports = 200
	secs, err = inWorld(1, func(c *mpi.Comm) {
		p, _ := critter.New(c, critter.Options{Policy: critter.Conditional, Eps: 0.125})
		for k := 0; k < 64; k++ {
			for r := 0; r < 4; r++ {
				p.Kernel("probe", 8+k, 8, 8, 0, 1e3, func() {})
			}
		}
		for i := 0; i < exports; i++ {
			probeSink += float64(len(p.ExportProfile().Kernels))
		}
	})
	if err != nil {
		return fmt.Errorf("probe profile export: %w", err)
	}
	ps["critter.profile_export_us"] = secs * 1e6 / exports

	prof, _, _, err := probeProfile(ctx)
	if err != nil {
		return err
	}
	data, err := prof.Encode()
	if err != nil {
		return fmt.Errorf("probe profile encode: %w", err)
	}
	ps["critter.profile_encode_us"] = perCall(50, 1e6, func() {
		d, _ := prof.Encode() // checked above on the same value
		probeSink += float64(len(d))
	})
	ps["critter.profile_decode_us"] = perCall(50, 1e6, func() {
		if _, e := critter.DecodeProfile(data); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("probe profile decode: %w", err)
	}
	ps["critter.profile_merge_us"] = perCall(50, 1e6, func() {
		probeSink += float64(len(critter.MergeProfiles(prof, prof).Kernels))
	})
	return nil
}

// probeLibs times one unskipped configuration of each library: a full
// execution of the whole quick-scale space, divided by its size.
func probeLibs(ctx context.Context, _ *runEnv, ps probeSet) error {
	for _, name := range []string{"capital", "slate-chol", "candmc", "slate-qr"} {
		st, err := resolveStudy(name, "quick")
		if err != nil {
			return err
		}
		secs := timeMedian3(func() {
			if _, e := autotune.FullOnlyCtx(ctx, st, benchMachine(), goldenSeed, tunerWorkers); e != nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("probe libs %s: %w", name, err)
		}
		ps["libs.config_ms."+name] = secs * 1e3 / float64(st.Size())
	}
	return nil
}

func probeAutotune(ctx context.Context, _ *runEnv, ps probeSet) error {
	_, res, st, err := probeProfile(ctx)
	if err != nil {
		return err
	}
	ps["autotune.plan_exhaustive_us"] = perCall(2000, 1e6, func() {
		r, _ := autotune.Exhaustive{}.Plan(st.Space, 0.125).Next(nil)
		probeSink += float64(len(r.Configs))
	})
	// A whole surrogate-guided plan: every round answered with a made-up
	// response surface, so only planning and fitting are timed.
	ps["autotune.plan_surrogate_us"] = perCall(20, 1e6, func() {
		plan := autotune.Surrogate{N: 12, Seed: goldenSeed}.Plan(st.Space, 0.125)
		var prev []autotune.ConfigResult
		for {
			r, ok := plan.Next(prev)
			if !ok || len(r.Configs) == 0 {
				return
			}
			prev = prev[:0]
			for _, v := range r.Configs {
				cr := autotune.ConfigResult{Config: v, Eps: r.Eps}
				cr.Selective.Predicted = 1 + math.Abs(float64(v)-7)/10
				prev = append(prev, cr)
			}
		}
	})
	env := &autotune.Envelope{
		SchemaVersion: autotune.ResultSchemaVersion, Study: st.Name, Scale: "quick",
		Seed: goldenSeed, NoiseSigma: 0.05, Strategy: res.Strategy,
		Profiles: autotune.ProfileSummaries(res), Result: res,
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return fmt.Errorf("probe envelope encode: %w", err)
	}
	ps["autotune.envelope_encode_ms"] = perCall(20, 1e3, func() {
		d, _ := json.MarshalIndent(env, "", "  ") // checked above on the same value
		probeSink += float64(len(d))
	})
	ps["autotune.envelope_decode_ms"] = perCall(20, 1e3, func() {
		if _, e := autotune.DecodeEnvelope(data); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("probe envelope decode: %w", err)
	}
	return nil
}

// probeScaling runs the grid-quick rep body at one worker (the plain
// sequential baseline), at the harness's two, and at two with a trace ring
// on Tuner.Tracer.
func probeScaling(ctx context.Context, env *runEnv, ps probeSet) error {
	g, err := newGridQuick(goldenSeed, env)
	if err != nil {
		return err
	}
	run := func(workers int, tracer obs.Tracer) (float64, error) {
		tuners := make([]autotune.Tuner, len(g.studies))
		for i, s := range g.studies {
			tuners[i] = s.tuner
			tuners[i].Tracer = tracer
		}
		t0 := time.Now()
		_, errs := autotune.RunTuners(ctx, tuners, workers, nil)
		for _, e := range errs {
			if e != nil {
				return 0, fmt.Errorf("probe scaling: %w", e)
			}
		}
		return time.Since(t0).Seconds(), nil
	}
	w1, err := run(1, nil)
	if err != nil {
		return err
	}
	// The faster of two, each: the overhead is a difference of two reps,
	// and one disturbed rep would swamp it.
	w2, traced := math.Inf(1), math.Inf(1)
	for i := 0; i < 2; i++ {
		secs, err := run(tunerWorkers, nil)
		if err != nil {
			return err
		}
		w2 = min(w2, secs)
		secs, err = run(tunerWorkers, obs.NewRing(4096, obs.WallClock()))
		if err != nil {
			return err
		}
		traced = min(traced, secs)
	}
	ps["autotune.workers1_wall_s"] = w1
	ps["autotune.parallel_speedup"] = w1 / w2
	ps["obs.tuner_trace_overhead_pct"] = 100 * (traced - w2) / w2
	return nil
}

func probeSurrogateWorkload(_ context.Context, _ *runEnv, ps probeSet) error {
	sizes := []int{5, 3, 4}
	var observed []surrogate.Obs
	for i := 0; i < 24; i++ {
		c := []int{i % 5, (i / 5) % 3, (i / 2) % 4}
		observed = append(observed, surrogate.Obs{Coords: c, Y: 1 + 0.1*float64(c[0]*c[0]+c[1]) + 0.05*float64(c[2])})
	}
	m := surrogate.New(sizes, 0)
	var err error
	ps["surrogate.fit_us"] = perCall(200, 1e6, func() {
		if e := m.Fit(observed); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("probe surrogate fit: %w", err)
	}
	coords := []int{2, 1, 3}
	ps["surrogate.predict_ns"] = perCall(200000, 1e9, func() {
		mean, std := m.Predict(coords)
		probeSink += mean + std
	})
	ps["workload.resolve_us"] = perCall(200, 1e6, func() {
		if _, e := registry.ResolveStudy(nil, "candmc", "quick"); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("probe workload resolve: %w", err)
	}
	return nil
}

func probeStore(_ context.Context, env *runEnv, ps probeSet) error {
	dir := filepath.Join(env.tmpDir, "probe-store")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{CompactBytes: -1})
	if err != nil {
		return fmt.Errorf("probe store: %w", err)
	}
	payload := func(n int) json.RawMessage {
		b := make([]byte, n)
		for i := range b {
			b[i] = 'a' + byte(i%26)
		}
		data, _ := json.Marshal(string(b)) // a string always marshals
		return data
	}
	at := time.Unix(1700000000, 0).UTC()
	seq := 0
	appendN := func(n int, data json.RawMessage) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			seq++
			if e := st.Append(store.Record{Kind: "probe", Key: fmt.Sprintf("k%05d", seq), At: at, Data: data}); e != nil {
				err = e
			}
		}
		return time.Since(t0).Seconds() * 1e6 / float64(n)
	}
	// 2000 records in all, so the replay probe reads a log of known size.
	ps["store.append_1k_us"] = appendN(1900, payload(1<<10))
	ps["store.append_64k_us"] = appendN(100, payload(64<<10))
	if err != nil {
		st.Close()
		return fmt.Errorf("probe store append: %w", err)
	}
	ps["store.bytes_written"] = float64(st.LogSize())
	ps["store.get_ns"] = perCall(200000, 1e9, func() {
		if _, ok := st.Get("probe", "k01000"); ok {
			probeSink++
		}
	})
	if err := st.Close(); err != nil {
		return fmt.Errorf("probe store close: %w", err)
	}
	ps["store.open_replay_ms"] = 1e3 * timeMedian3(func() {
		s, e := store.Open(dir, store.Options{CompactBytes: -1})
		if e != nil {
			err = e
			return
		}
		if s.Len() != seq {
			err = fmt.Errorf("replayed %d records, want %d", s.Len(), seq)
		}
		if e := s.Close(); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("probe store replay: %w", err)
	}
	st, err = store.Open(dir, store.Options{CompactBytes: -1})
	if err != nil {
		return fmt.Errorf("probe store: %w", err)
	}
	t0 := time.Now()
	_, err = st.Compact()
	ps["store.compact_ms"] = time.Since(t0).Seconds() * 1e3
	if err != nil {
		st.Close()
		return fmt.Errorf("probe store compact: %w", err)
	}
	return st.Close()
}

// probeJob is a small cold spec: slate-chol at quick scale, six sampled
// configurations.
func probeJob(seed uint64) []byte {
	off := false
	body, _ := json.Marshal(service.JobRequest{ // plain values only
		Workload: "slate-chol", Scale: "quick", Policies: []string{"online"},
		Eps: []float64{0.125}, Strategy: "random:6", Seed: &seed, WarmStart: &off,
	})
	return body
}

func probeService(ctx context.Context, env *runEnv, ps probeSet) error {
	body := probeJob(1)
	var err error
	ps["service.parse_us"] = perCall(2000, 1e6, func() {
		if _, e := service.ParseJobRequest(nil, body); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("probe service parse: %w", err)
	}

	dir := filepath.Join(env.tmpDir, "probe-service")
	defer os.RemoveAll(dir)
	rc := &repCtx{ctx: ctx, atEnd: func() {}}
	phase, err := bootService(rc, nil, dir)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			phase.close(rc, nil)
		}
	}()
	cl := &clientState{http: &http.Client{}}
	defer cl.http.CloseIdleConnections()

	// Distinct cold jobs, submitted in batches the queue can hold.
	const jobs, batch = 48, 12
	var submitUS []float64
	var ids []string
	for b := 0; b < jobs; b += batch {
		var batchIDs []string
		for i := b; i < b+batch; i++ {
			t0 := time.Now()
			st, err := phase.sched.SubmitJSON(probeJob(uint64(100 + i)))
			submitUS = append(submitUS, time.Since(t0).Seconds()*1e6)
			if err != nil {
				return fmt.Errorf("probe service submit: %w", err)
			}
			batchIDs = append(batchIDs, st.ID)
		}
		for _, id := range batchIDs {
			if st, err := phase.sched.Wait(ctx, id); err != nil || st.State != service.StateDone {
				return fmt.Errorf("probe service: job %s: state %s: %v", id, st.State, err)
			}
		}
		ids = append(ids, batchIDs...)
	}
	ps["service.submit_us"] = median(submitUS)

	var hitUS []float64
	for i := 0; i < jobs; i++ {
		t0 := time.Now()
		st, err := phase.sched.SubmitJSON(probeJob(uint64(100 + i)))
		hitUS = append(hitUS, time.Since(t0).Seconds()*1e6)
		if err != nil || !st.Deduped {
			return fmt.Errorf("probe service memo hit: deduped=%v: %v", st.Deduped, err)
		}
	}
	ps["service.memo_hit_us"] = median(hitUS)

	// K identical specs back to back: all but the first should coalesce
	// onto the running one (or hit its memo entry).
	const k = 12
	runsBefore := phase.sched.TunerRuns()
	var same []string
	for i := 0; i < k; i++ {
		st, err := phase.sched.SubmitJSON(probeJob(9999))
		if err != nil {
			return fmt.Errorf("probe service coalesce: %w", err)
		}
		same = append(same, st.ID)
	}
	for _, id := range same {
		if _, err := phase.sched.Wait(ctx, id); err != nil {
			return fmt.Errorf("probe service coalesce: %w", err)
		}
	}
	ps["service.coalesce_frac"] = 1 - float64(phase.sched.TunerRuns()-runsBefore)/k

	ps["service.http_result_ms"] = perCall(50, 1e3, func() {
		if _, e := cl.get(ctx, phase.srv.URL+"/v1/jobs/"+ids[0]+"/result"); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("probe service result: %w", err)
	}

	// A fresh job end to end over HTTP against a direct Tuner.Run of the
	// same spec.
	var viaService, direct []float64
	st, err := resolveStudy("slate-chol", "quick")
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		seed := uint64(5000 + i)
		t0 := time.Now()
		js, err := cl.submit(ctx, phase.srv.URL, probeJob(seed))
		if err != nil {
			return fmt.Errorf("probe service overhead: %w", err)
		}
		if terminal, _, _, err := cl.follow(ctx, phase.srv.URL, js.ID); err != nil || terminal != "done" {
			return fmt.Errorf("probe service overhead: job ended %q: %v", terminal, err)
		}
		if _, err := cl.get(ctx, phase.srv.URL+"/v1/jobs/"+js.ID+"/result"); err != nil {
			return fmt.Errorf("probe service overhead: %w", err)
		}
		viaService = append(viaService, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		if _, err := (autotune.Tuner{
			Study: st, EpsList: []float64{0.125}, Policies: []critter.Policy{critter.Online},
			Machine: benchMachine(), Seed: seed, Workers: 1,
			Strategy: autotune.RandomSample{N: 6, Seed: seed},
		}).Run(ctx); err != nil {
			return fmt.Errorf("probe service overhead: direct run: %w", err)
		}
		direct = append(direct, time.Since(t0).Seconds()*1e3)
	}
	ps["service.overhead_ms"] = median(viaService) - median(direct)

	// Prometheus exposition of a live scheduler's registry.
	ps["obs.prometheus_write_us"] = perCall(200, 1e6, func() {
		if e := phase.sched.Metrics().WritePrometheus(io.Discard); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("probe prometheus: %w", err)
	}

	// Restart: close, then time reopening the store and replaying the
	// history (over a hundred finished jobs) into a new scheduler.
	closed = true
	if err := phase.close(rc, nil); err != nil {
		return err
	}
	t0 := time.Now()
	phase, err = bootService(rc, nil, dir)
	ps["service.restart_replay_ms"] = time.Since(t0).Seconds() * 1e3
	if err != nil {
		return err
	}
	return phase.close(rc, nil)
}

func probeObs(_ context.Context, _ *runEnv, ps probeSet) error {
	c := obs.NewRegistry().Counter("probe_total", "probe")
	ps["obs.counter_inc_ns"] = perCall(5_000_000, 1e9, c.Inc)
	ring := obs.NewRing(4096, obs.WallClock())
	ev := obs.Event{Kind: obs.KindConfig, Phase: obs.PhasePoint, Policy: "online", Eps: 0.125, Config: 3}
	ps["obs.ring_emit_ns"] = perCall(1_000_000, 1e9, func() { ring.Emit(ev) })
	return nil
}
