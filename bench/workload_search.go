package main

// search-warm: a warm-start tuning campaign per study. It drives critter
// and autotune the way the grids do not — profiles are exported, encoded,
// decoded, merged and fed back as priors; every sweep evaluates few
// configurations, so per-sweep fixed costs weigh more; and the surrogate
// is fitted — so a grid-side gain that taxes the warm-start path shows
// here as a loss.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"critter/internal/autotune"
	"critter/internal/critter"
)

// The campaign's tolerances, halving stage by stage.
const (
	coldEps   = 0.25
	sampleEps = 0.125
	warmEps   = 0.0625
)

// samplerSeed seeds which configurations the sampling strategies draw. It
// is fixed: -seed picks the noise the simulated machine draws, not the
// subset of the space a rep evaluates, so every seed does a like amount of
// work and timings of different seeds are comparable.
const samplerSeed = 42

type searchStudy struct {
	name  string
	study autotune.Study
	// coldExecuted is how many kernels a cold exhaustive sweep at warmEps
	// executes; the campaign's warm sweep must not execute more. Computed
	// once when the workload is built.
	coldExecuted int64
}

type searchWorkload struct {
	seed    uint64
	studies []searchStudy
	// transfer is slate-chol at default scale, tuned from the quick-scale
	// prior by extrapolation.
	transfer     autotune.Study
	transferFrom int // index into studies
	transferN    int // surrogate budget
}

func newSearchWarm(seed uint64, env *runEnv) (*searchWorkload, error) {
	names := []string{"capital", "slate-chol", "candmc", "slate-qr"}
	transferScale := "default"
	if env.smoke {
		names = names[1:2]
		transferScale = "quick"
	}
	w := &searchWorkload{seed: seed, transferN: 6}
	for i, name := range names {
		st, err := resolveStudy(name, "quick")
		if err != nil {
			return nil, err
		}
		if name == "slate-chol" {
			w.transferFrom = i
		}
		res, err := w.tuner(st, warmEps, nil).Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("%s: cold twin: %w", name, err)
		}
		w.studies = append(w.studies, searchStudy{name: name, study: st, coldExecuted: res.Sweeps[0][0].Executed})
	}
	var err error
	w.transfer, err = resolveStudy("slate-chol", transferScale)
	return w, err
}

// tuner is the campaign's common shape: one online sweep at eps.
func (w *searchWorkload) tuner(st autotune.Study, eps float64, strat autotune.Strategy) autotune.Tuner {
	return autotune.Tuner{
		Study: st, EpsList: []float64{eps}, Policies: []critter.Policy{critter.Online},
		Machine: benchMachine(), Seed: w.seed, Strategy: strat, Workers: tunerWorkers,
	}
}

func (w *searchWorkload) rep(rc *repCtx) (repOutput, error) {
	var out repOutput
	h := sha256.New()
	var keep []*autotune.Result
	// run executes one stage and folds its result into the rep's output.
	run := func(parent *spanRef, name, stage string, t autotune.Tuner) (*autotune.Result, error) {
		sp := rc.rec.begin(parent, 0, "autotune.run", name)
		t0 := time.Now()
		t.Progress = func(autotune.Progress) {
			now := time.Now()
			rc.rec.add(sp, 1, "autotune.sweep", name, t0, now)
		}
		res, err := t.Run(rc.ctx)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", name, stage, err)
		}
		out.latencies = append(out.latencies, time.Since(t0).Seconds())
		enc := rc.rec.begin(parent, 0, "envelope.encode", name)
		data, err := json.Marshal(res)
		enc.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %s: encode result: %w", name, stage, err)
		}
		h.Write(data)
		out.ops += countConfigs(res)
		out.paper.addResult(res)
		keep = append(keep, res)
		return res, nil
	}

	var transferPrior *critter.Profile
	for i, s := range w.studies {
		camp := rc.rec.begin(rc.root, 0, "campaign", s.name)
		cold, err := run(camp, s.name, "cold", w.tuner(s.study, coldEps, nil))
		if err != nil {
			return out, err
		}
		// Export the way critter-tune -profile-out / -profile-in does.
		pio := rc.rec.begin(camp, 0, "profile.roundtrip", s.name)
		data, err := autotune.MergedProfile(cold).Encode()
		if err != nil {
			return out, fmt.Errorf("%s: encode profile: %w", s.name, err)
		}
		prior, err := critter.DecodeProfile(data)
		pio.end()
		if err != nil {
			return out, fmt.Errorf("%s: decode profile: %w", s.name, err)
		}
		h.Write(data)

		sampled, err := run(camp, s.name, "random", w.tuner(s.study, sampleEps,
			autotune.WarmStart(autotune.RandomSample{N: 6, Seed: samplerSeed}, prior)))
		if err != nil {
			return out, err
		}
		guided, err := run(camp, s.name, "surrogate", w.tuner(s.study, sampleEps,
			autotune.WarmStart(autotune.Surrogate{N: 8, Seed: samplerSeed}, prior)))
		if err != nil {
			return out, err
		}
		pm := rc.rec.begin(camp, 0, "profile.merge", s.name)
		merged := critter.MergeProfiles(prior, autotune.MergedProfile(sampled))
		merged = critter.MergeProfiles(merged, autotune.MergedProfile(guided))
		pm.end()

		t := w.tuner(s.study, warmEps, nil)
		t.Prior = merged
		warm, err := run(camp, s.name, "warm", t)
		if err != nil {
			return out, err
		}
		if sw := warm.Sweeps[0][0]; sw.Executed > s.coldExecuted {
			out.failed += len(sw.Configs)
		}
		if i == w.transferFrom {
			transferPrior = merged
		}
		camp.end()
	}

	camp := rc.rec.begin(rc.root, 0, "campaign", "slate-chol-transfer")
	t := w.tuner(w.transfer, sampleEps, autotune.Surrogate{N: w.transferN, Seed: samplerSeed})
	t.Prior, t.Extrapolate = transferPrior, true
	if _, err := run(camp, "slate-chol-transfer", "extrapolate", t); err != nil {
		return out, err
	}
	camp.end()

	h.Sum(out.digest[:0])
	if rc.trace {
		out.counts = paperCounts(out.paper)
	}
	rc.atEnd()
	runtime.KeepAlive(keep)
	return out, nil
}
