package service

// The job-submission surface: the wire-level JobRequest, its strict JSON
// decoding, and validation against a workload registry. Every field a
// request can set is checked here — the scheduler and the HTTP layer only
// ever see fully resolved specs, and a malformed request is a plain error
// (the HTTP layer's 400), never a panic or a half-built job.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/workload"
)

// Request-size guards: a tuning grid is policies x eps sweeps, each a full
// simulation, so unbounded lists are a denial of service, not a use case.
const (
	maxEpsPerJob      = 64
	maxPoliciesPerJob = 16
)

// JobRequest is the JSON body of POST /v1/jobs. Zero-valued fields take
// the documented defaults; pointers distinguish "absent" from zero values
// that are meaningful (seed 0, noise 0).
type JobRequest struct {
	// Workload names a registered workload. Required.
	Workload string `json:"workload"`
	// Scale names one of the workload's declared scale presets. Default:
	// the workload's first (preferred) preset.
	Scale string `json:"scale,omitempty"`
	// Policies lists selective-execution policy names. Default: the
	// workload's declared default policies.
	Policies []string `json:"policies,omitempty"`
	// Eps lists the confidence tolerances to sweep. Default: [0.125].
	Eps []float64 `json:"eps,omitempty"`
	// Strategy is a search-strategy spec in autotune.StrategyNames'
	// grammar, as autotune.ParseStrategy reads it. Default: exhaustive.
	Strategy string `json:"strategy,omitempty"`
	// Seed seeds every sweep's world. Default: 42.
	Seed *uint64 `json:"seed,omitempty"`
	// NoiseSigma is the simulated machine's noise. Default: 0.05.
	NoiseSigma *float64 `json:"noiseSigma,omitempty"`
	// Extrapolate enables family-model extrapolation in the selective
	// profilers (how warm starts transfer across scales).
	Extrapolate bool `json:"extrapolate,omitempty"`
	// WarmStart seeds the job from the service's accumulated profile for
	// this workload, when one exists. Default: true.
	WarmStart *bool `json:"warmStart,omitempty"`
}

// jobSpec is a fully resolved, validated job: everything runJob needs,
// with no name left to resolve and no list left to bound-check.
type jobSpec struct {
	workload    workload.Workload
	scaleName   string
	scale       autotune.Scale
	policies    []critter.Policy
	policyNames []string
	eps         []float64
	strategy    autotune.Strategy
	seed        uint64
	noise       float64
	extrapolate bool
	warm        bool
	// fingerprint content-addresses the work: two specs with the same
	// fingerprint run byte-identical simulations (given the same prior),
	// so they are safe to coalesce.
	fingerprint string
	// req is the normalized request — every default filled in, every name
	// canonical — as a job's durable record holds it (replay reads its
	// warm-start flag).
	req JobRequest
}

// ParseJobRequest strictly decodes a JSON job submission and validates it
// against reg (nil means the default workload registry): unknown fields,
// trailing data, unknown workloads/scales/policies/strategies, and
// non-finite or oversized tolerance lists are all errors.
func ParseJobRequest(reg *workload.Registry, data []byte) (*jobSpec, error) {
	if reg == nil {
		reg = workload.Default()
	}
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("service: decode job request: %w", err)
	}
	// A second document after the first is a malformed request, not data
	// to silently ignore.
	if dec.More() {
		return nil, fmt.Errorf("service: decode job request: trailing data after JSON body")
	}
	return resolveJobRequest(reg, req)
}

// resolveJobRequest validates a decoded request and fills defaults.
func resolveJobRequest(reg *workload.Registry, req JobRequest) (*jobSpec, error) {
	if req.Workload == "" {
		return nil, fmt.Errorf("service: job request: missing workload (registered: %s)", joinOr(reg.Names(), "none"))
	}
	w, ok := reg.Lookup(req.Workload)
	if !ok {
		return nil, fmt.Errorf("service: job request: unknown workload %q (registered: %s)", req.Workload, joinOr(reg.Names(), "none"))
	}

	spec := &jobSpec{
		workload:    w,
		seed:        42,
		noise:       0.05,
		extrapolate: req.Extrapolate,
		warm:        true,
	}
	if req.Seed != nil {
		spec.seed = *req.Seed
	}
	if req.NoiseSigma != nil {
		if math.IsNaN(*req.NoiseSigma) || math.IsInf(*req.NoiseSigma, 0) || *req.NoiseSigma < 0 {
			return nil, fmt.Errorf("service: job request: bad noiseSigma %v", *req.NoiseSigma)
		}
		spec.noise = *req.NoiseSigma
	}
	if req.WarmStart != nil {
		spec.warm = *req.WarmStart
	}

	spec.scaleName = req.Scale
	if spec.scaleName == "" {
		spec.scaleName = w.Scales[0].Name
	}
	scale, err := workload.ScaleOf(w, spec.scaleName)
	if err != nil {
		return nil, fmt.Errorf("service: job request: %w", err)
	}
	spec.scale = scale

	names := req.Policies
	if len(names) == 0 {
		for _, p := range w.Policies {
			names = append(names, p.String())
		}
	}
	if len(names) > maxPoliciesPerJob {
		return nil, fmt.Errorf("service: job request: %d policies exceeds the limit of %d", len(names), maxPoliciesPerJob)
	}
	for _, name := range names {
		p, err := critter.ParsePolicy(name)
		if err != nil {
			return nil, fmt.Errorf("service: job request: %w", err)
		}
		spec.policies = append(spec.policies, p)
		spec.policyNames = append(spec.policyNames, p.String())
	}

	spec.eps = req.Eps
	if len(spec.eps) == 0 {
		spec.eps = []float64{0.125}
	}
	if len(spec.eps) > maxEpsPerJob {
		return nil, fmt.Errorf("service: job request: %d tolerances exceeds the limit of %d", len(spec.eps), maxEpsPerJob)
	}
	for _, e := range spec.eps {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, fmt.Errorf("service: job request: bad eps %v", e)
		}
	}

	strategySpec := req.Strategy
	if strategySpec == "" {
		strategySpec = "exhaustive"
	}
	strat, err := autotune.ParseStrategy(strategySpec, spec.seed)
	if err != nil {
		return nil, fmt.Errorf("service: job request: %w", err)
	}
	spec.strategy = strat

	// Strategy names round-trip through ParseStrategy, so the normalized
	// request re-resolves to an identical spec.
	spec.req = JobRequest{
		Workload:    w.Name,
		Scale:       spec.scaleName,
		Policies:    append([]string(nil), spec.policyNames...),
		Eps:         append([]float64(nil), spec.eps...),
		Strategy:    spec.strategy.Name(),
		Seed:        &spec.seed,
		NoiseSigma:  &spec.noise,
		Extrapolate: spec.extrapolate,
		WarmStart:   &spec.warm,
	}
	spec.fingerprint = fingerprintSpec(spec)
	return spec, nil
}

// fingerprintSpec content-addresses a resolved spec: SHA-256 over the
// canonical JSON of every field that determines the simulation's output.
func fingerprintSpec(spec *jobSpec) string {
	canon := struct {
		Workload    string    `json:"workload"`
		Scale       string    `json:"scale"`
		Policies    []string  `json:"policies"`
		Eps         []float64 `json:"eps"`
		Strategy    string    `json:"strategy"`
		Seed        uint64    `json:"seed"`
		NoiseSigma  float64   `json:"noiseSigma"`
		Extrapolate bool      `json:"extrapolate"`
		WarmStart   bool      `json:"warmStart"`
	}{
		Workload:    spec.workload.Name,
		Scale:       spec.scaleName,
		Policies:    spec.policyNames,
		Eps:         spec.eps,
		Strategy:    spec.strategy.Name(),
		Seed:        spec.seed,
		NoiseSigma:  spec.noise,
		Extrapolate: spec.extrapolate,
		WarmStart:   spec.warm,
	}
	data, err := json.Marshal(canon)
	if err != nil {
		// Every field above is a plain value; Marshal cannot fail.
		panic(fmt.Sprintf("service: fingerprint marshal: %v", err))
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(data))
}

// joinOr renders a comma-joined list, or fallback when it is empty.
func joinOr(names []string, fallback string) string {
	if len(names) == 0 {
		return fallback
	}
	return strings.Join(names, ", ")
}
