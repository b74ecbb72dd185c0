package service

// Fuzzing of the job-submission gate: whatever bytes arrive in a POST
// /v1/jobs body, ParseJobRequest either rejects them with an error (the
// HTTP layer's 400) or returns a fully resolved spec — never a panic,
// never a half-built job. Under plain `go test` the seed corpus runs as
// ordinary unit tests.

import (
	"math"
	"strings"
	"testing"
)

func FuzzParseJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"candmc"}`,
		`{"workload":"candmc","scale":"quick","policies":["online"],"eps":[0.125]}`,
		`{"workload":"capital","strategy":"halving:3","seed":7,"noiseSigma":0.1}`,
		`{"workload":"slate-qr","strategy":"random:16","warmStart":false,"extrapolate":true}`,
		`{"workload":"slate-qr","strategy":"surrogate:16","seed":3}`,
		`{"workload":"candmc","strategy":"surrogate:8:2"}`,
		`{"workload":"candmc","strategy":"surrogate:0"}`,
		`{"workload":"candmc","strategy":"surrogate:8:"}`,
		`{"workload":"cholesky3d","eps":[1,0.5,0.25]}`,
		`{"workload":"bogus"}`,
		`{"workload":"candmc","scale":"huge"}`,
		`{"workload":"candmc","policies":["bogus"]}`,
		`{"workload":"candmc","eps":[1e999]}`,
		`{"workload":"candmc","eps":["x"]}`,
		`{"workload":"candmc","strategy":"random:-1"}`,
		`{"workload":"candmc","seed":-1}`,
		`{"workload":"candmc","noiseSigma":"high"}`,
		`{"workload":"candmc","unknown":true}`,
		`{"workload":"candmc"}{"workload":"candmc"}`,
		`{}`, `[]`, `null`, `42`, `"candmc"`, ``, `{`, "\x00\x01\x02",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJobRequest(nil, data)
		if err != nil {
			if spec != nil {
				t.Fatalf("ParseJobRequest returned both a spec and error %v", err)
			}
			return
		}
		// An accepted spec must be fully resolved and runnable.
		if spec.workload.Build == nil || spec.strategy == nil {
			t.Fatalf("accepted spec is half-built: %+v", spec)
		}
		if len(spec.eps) == 0 || len(spec.eps) > maxEpsPerJob {
			t.Fatalf("accepted spec has %d eps values", len(spec.eps))
		}
		for _, e := range spec.eps {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("accepted spec carries non-finite eps %v", e)
			}
		}
		if len(spec.policies) == 0 || len(spec.policies) > maxPoliciesPerJob {
			t.Fatalf("accepted spec has %d policies", len(spec.policies))
		}
		if len(spec.policyNames) != len(spec.policies) {
			t.Fatalf("policy name/value mismatch: %v vs %v", spec.policyNames, spec.policies)
		}
		if math.IsNaN(spec.noise) || math.IsInf(spec.noise, 0) || spec.noise < 0 {
			t.Fatalf("accepted spec carries bad noise %v", spec.noise)
		}
		if spec.scaleName == "" {
			t.Fatal("accepted spec has no scale name")
		}
		st := spec.workload.Build(spec.scale)
		if st.Size() <= 0 || st.WorldSize <= 0 || st.Run == nil {
			t.Fatalf("accepted spec builds a degenerate study: %+v", st)
		}
		if spec.strategy.Name() == "" {
			t.Fatal("accepted spec has an unnamed strategy")
		}
	})
}

// TestParseJobRequestErrors pins the informative error paths the fuzzer
// only proves are non-panicking.
func TestParseJobRequestErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`{"workload":"bogus"}`, "unknown workload"},
		{`{"workload":"bogus"}`, "candmc"}, // the error enumerates the catalog
		{`{}`, "missing workload"},
		{`{"workload":"candmc","scale":"huge"}`, `unknown scale "huge"`},
		{`{"workload":"candmc","scale":"huge"}`, "quick"}, // enumerates the presets
		{`{"workload":"candmc","policies":["warp"]}`, "policy"},
		{`{"workload":"candmc","strategy":"bogus"}`, "unknown strategy"},
		{`{"workload":"candmc","strategy":"halving:3"}`, "takes no argument"},
		{`{"workload":"candmc","strategy":"surrogate:8:2"}`, `"surrogate:8:2"`},
		{`{"workload":"candmc","noiseSigma":-1}`, "noiseSigma"},
		{`{"workload":"candmc","unknownField":1}`, "unknown field"},
		{`{"workload":"candmc","dedup":false}`, `unknown field "dedup"`},
		{`{"workload":"candmc"} trailing`, "trailing data"},
	}
	for _, tc := range cases {
		_, err := ParseJobRequest(nil, []byte(tc.in))
		if err == nil {
			t.Errorf("ParseJobRequest(%s) succeeded", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseJobRequest(%s) error %q does not mention %q", tc.in, err, tc.want)
		}
	}

	// Oversized lists are rejected before any simulation could start.
	big := `{"workload":"candmc","eps":[` + strings.Repeat("0.5,", maxEpsPerJob) + `0.5]}`
	if _, err := ParseJobRequest(nil, []byte(big)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized eps list: err = %v", err)
	}
}
