package main

// grid-quick and grid-default: one RunTuners call per rep over a fixed
// list of exhaustive policy x eps grids. They differ only in scale, which
// is the point: at quick scale the kernels are tiny and the runtime's
// per-message cost dominates; at default scale the numerics do.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"critter/internal/autotune"
	"critter/internal/sim"
	registry "critter/internal/workload"
)

// benchMachine is the machine model of the committed goldens.
func benchMachine() sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseSigma = 0.05
	return m
}

// goldenSeed is the seed the committed golden envelopes were made with.
const goldenSeed = 42

// gridStudy is one tuner of a grid workload.
type gridStudy struct {
	name  string // registry name, used in span and metric names
	tuner autotune.Tuner
	// golden, when set, is the committed envelope every rep's serialized
	// result must equal byte for byte.
	golden []byte
}

type gridWorkload struct {
	studies []gridStudy
}

func resolveStudy(name, scale string) (autotune.Study, error) {
	return registry.ResolveStudy(nil, name, scale)
}

// newGridQuick builds the four committed exhaustive golden grids. With the
// goldens' seed every rep is compared with the golden files.
func newGridQuick(seed uint64, env *runEnv) (*gridWorkload, error) {
	cases := []struct {
		name string
		eps  []float64
	}{
		{"capital", []float64{0.5, 0.125}},
		{"slate-chol", []float64{0.5, 0.125}},
		{"candmc", []float64{0.5, 0.125}},
		{"slate-qr", []float64{0.125}},
	}
	if env.smoke {
		cases = cases[:2]
	}
	g := &gridWorkload{}
	for _, c := range cases {
		st, err := resolveStudy(c.name, "quick")
		if err != nil {
			return nil, err
		}
		gs := gridStudy{name: c.name, tuner: autotune.Tuner{
			Study: st, EpsList: c.eps, Machine: benchMachine(), Seed: seed,
		}}
		if seed == goldenSeed {
			path := filepath.Join(env.root, "internal", "autotune", "testdata", "envelope_"+c.name+"_exhaustive.golden.json")
			gs.golden, err = os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("golden envelope: %w", err)
			}
		}
		g.studies = append(g.studies, gs)
	}
	return g, nil
}

// newGridDefault builds slate-chol (64 ranks) and slate-qr (32 ranks) at
// default scale, each study's four policies at three tolerances: 24 sweeps,
// about nine seconds a rep.
func newGridDefault(seed uint64, env *runEnv) (*gridWorkload, error) {
	scale := "default"
	if env.smoke {
		scale = "quick"
	}
	g := &gridWorkload{}
	for _, name := range []string{"slate-chol", "slate-qr"} {
		st, err := resolveStudy(name, scale)
		if err != nil {
			return nil, err
		}
		g.studies = append(g.studies, gridStudy{name: name, tuner: autotune.Tuner{
			Study: st, EpsList: []float64{1, 0.5, 0.25}, Machine: benchMachine(), Seed: seed,
		}})
	}
	return g, nil
}

func (g *gridWorkload) rep(rc *repCtx) (repOutput, error) {
	var out repOutput
	tuners := make([]autotune.Tuner, len(g.studies))
	index := make(map[string]int, len(g.studies)) // Study.Name -> position
	left := make([]int, len(g.studies))           // sweeps not yet reported
	for i, s := range g.studies {
		tuners[i] = s.tuner
		index[s.tuner.Study.Name] = i
		left[i] = sweepCount(s.tuner)
	}

	call := rc.rec.begin(rc.root, 0, "autotune.RunTuners", "")
	t0 := time.Now()
	// Progress callbacks are serialized by the executor.
	results, errs := autotune.RunTuners(rc.ctx, tuners, tunerWorkers, func(p autotune.Progress) {
		now := time.Now()
		i := index[p.Study]
		// Each study's sweeps share the pool with the others', so a study
		// is its own track; a sweep is timed from the call that scheduled
		// it, which is what a consumer of the stream waits.
		rc.rec.add(call, 1+i, "autotune.sweep", g.studies[i].name, t0, now)
		if left[i]--; left[i] == 0 {
			// The tuner's last sweep: its Run is over.
			rc.rec.add(call, 1+len(g.studies)+i, "autotune.run", g.studies[i].name, t0, now)
			out.latencies = append(out.latencies, now.Sub(t0).Seconds())
		}
	})
	call.end()
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("%s: %w", g.studies[i].name, err)
		}
	}

	enc := rc.rec.begin(rc.root, 0, "envelope.encode", "")
	h := sha256.New()
	for i, res := range results {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return out, fmt.Errorf("%s: encode result: %w", g.studies[i].name, err)
		}
		data = append(data, '\n')
		h.Write(data)
		ops := countConfigs(res)
		out.ops += ops
		if g.studies[i].golden != nil && !bytes.Equal(data, g.studies[i].golden) {
			out.failed += ops
		}
		out.paper.addResult(res)
	}
	enc.end()
	h.Sum(out.digest[:0])
	if rc.trace {
		out.counts = paperCounts(out.paper)
	}
	rc.atEnd()
	runtime.KeepAlive(results)
	return out, nil
}

// sweepCount is the number of (policy, eps) cells a tuner runs; every
// built-in study declares its policies.
func sweepCount(t autotune.Tuner) int {
	policies := len(t.Policies)
	if policies == 0 {
		policies = len(t.Study.Policies)
	}
	return policies * len(t.EpsList)
}

func countConfigs(res *autotune.Result) int {
	n := 0
	for _, row := range res.Sweeps {
		for _, sw := range row {
			n += len(sw.Configs)
		}
	}
	return n
}

// paperCounts are the per-layer counts every tuner workload can read from
// its result grids.
func paperCounts(p paperSums) map[string]float64 {
	return map[string]float64{
		"critter.kernels_executed": float64(p.Executed),
		"critter.kernels_skipped":  float64(p.Skipped),
		"critter.kernels_memoized": float64(p.Memoized),
		"autotune.sweeps":          float64(p.Sweeps),
		"autotune.configs":         float64(p.Evals),
	}
}
