package autotune_test

// Fuzzing of the flag-parsing gates and the envelope reader: whatever the
// input, a parser either returns an error or a fully usable value — no
// panics, no half-built studies, strategies or envelopes. Under plain
// `go test` these run their seed corpus as ordinary unit tests.
//
// This is an external test package: study and scale names resolve through
// the workload registry, whose package imports autotune.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	. "critter/internal/autotune"
	"critter/internal/workload"
)

// FuzzParseStudy fuzzes the -study gate: workload.ResolveStudy over a
// workload name and one of its preset names.
func FuzzParseStudy(f *testing.F) {
	for _, seed := range [][2]string{{"capital", "quick"}, {"slate-chol", "default"},
		{"candmc", "huge"}, {"slate-qr", "quick"}, {"cholesky3d", "quick"}, {"qr2d", "default"},
		{"", "quick"}, {"CAPITAL", "quick"}, {"slate-qr ", "quick"}, {"bogus", "Quick"}} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, name, scale string) {
		st, err := workload.ResolveStudy(nil, name, scale)
		if err != nil {
			return
		}
		if st.Name == "" || st.Size() <= 0 || st.WorldSize <= 0 || st.Run == nil {
			t.Fatalf("ResolveStudy(%q, %q) returned a half-built study: %+v", name, scale, st)
		}
		for v := 0; v < st.Size(); v++ {
			if st.Label(v) == "" {
				t.Fatalf("ResolveStudy(%q, %q): config %d has no label", name, scale, v)
			}
		}
	})
}

func FuzzParseScale(f *testing.F) {
	for _, seed := range []string{"default", "quick", "", "huge", "Default"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		for _, w := range workload.Default().List() {
			s, err := workload.ScaleOf(w, name)
			if err != nil {
				continue
			}
			if st := w.Build(s); st.Validate() != nil || st.WorldSize <= 0 {
				t.Fatalf("ScaleOf(%s, %q) built a degenerate study %s", w.Name, name, st.Name)
			}
		}
	})
}

// FuzzParseStrategy fuzzes the -strategy gate: every accepted spec names a
// strategy whose Name parses back to the same value (one spelling per
// strategy), and whose plan over a small space stays inside it and ends.
func FuzzParseStrategy(f *testing.F) {
	for _, seed := range []string{"exhaustive", "random:8", "random:0", "random:", "halving",
		"halving:2", "halving:3", "halving:1", "exhaustive:1", "random:-5", "bogus", "", "random:9999999",
		"surrogate:6", "surrogate:0", "surrogate:", "surrogate:3:2", "surrogate:3:0",
		"surrogate:3:-1", "surrogate:9999999:7", "surrogate:2:9999999"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		strat, err := ParseStrategy(spec, 7)
		if err != nil {
			return
		}
		if strat.Name() == "" {
			t.Fatalf("ParseStrategy(%q) returned an unnamed strategy", spec)
		}
		if back, err := ParseStrategy(strat.Name(), 7); err != nil || !reflect.DeepEqual(back, strat) {
			t.Fatalf("ParseStrategy(%q) = %#v, whose Name %q parses back to %#v (%v)", spec, strat, strat.Name(), back, err)
		}
		// Whatever the parsed parameters, the plan over a small space must
		// stay inside the space and terminate.
		sp := NewSpace(IntsDim("v", 0, 1, 2, 3, 4, 5))
		plan := strat.Plan(sp, 0.25)
		var prev []ConfigResult
		for rounds := 0; ; rounds++ {
			if rounds > 64 {
				t.Fatalf("ParseStrategy(%q): plan did not terminate", spec)
			}
			round, ok := plan.Next(prev)
			if !ok || len(round.Configs) == 0 {
				break
			}
			if round.Eps < 0.25 || round.Eps > 1 {
				t.Fatalf("ParseStrategy(%q): round eps %g outside [target, 1]", spec, round.Eps)
			}
			prev = prev[:0]
			for _, v := range round.Configs {
				if v < 0 || v >= sp.Size() {
					t.Fatalf("ParseStrategy(%q): config %d outside [0, %d)", spec, v, sp.Size())
				}
				prev = append(prev, ConfigResult{Config: v})
			}
		}
	})
}

// FuzzDecodeEnvelope fuzzes the envelope reader every consumer of
// critter-tune -json and the service's results goes through: any input
// either fails to decode, or decodes to an envelope inside the readable
// schema window that encodes again and decodes back to the same bytes.
func FuzzDecodeEnvelope(f *testing.F) {
	goldens, err := filepath.Glob("testdata/envelope_*.golden.json")
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden envelopes to seed from (%v)", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// A golden grid runs to hundreds of kilobytes, and the mutator
		// makes next to no progress on inputs that size: seed with the
		// grid's first sweep and two configurations, wrapped the way
		// critter-tune -json wraps a grid.
		var res Result
		if err := json.Unmarshal(data, &res); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		sw := res.Sweeps[0][0]
		sw.Configs = sw.Configs[:min(2, len(sw.Configs))]
		res.Policies, res.EpsList, res.Sweeps = res.Policies[:1], res.EpsList[:1], [][]SweepResult{{sw}}
		seed, err := json.Marshal(Envelope{SchemaVersion: ResultSchemaVersion, Study: res.Study,
			Scale: "quick", Seed: 42, NoiseSigma: 0.05, Strategy: res.Strategy, Result: &res})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	for _, seed := range []string{`{}`, `{"schemaVersion":1}`, `{"schemaVersion":2}`,
		`{"schemaVersion":4}`, `{"schemaVersion":3,"result":{"policies":["bogus"]}}`, `[]`, `null`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			if env != nil {
				t.Fatalf("DecodeEnvelope returned both an envelope and error %v", err)
			}
			return
		}
		if env.SchemaVersion < 2 || env.SchemaVersion > ResultSchemaVersion {
			t.Fatalf("DecodeEnvelope accepted schemaVersion %d outside [2, %d]", env.SchemaVersion, ResultSchemaVersion)
		}
		enc, err := json.Marshal(env)
		if err != nil {
			t.Fatalf("decoded envelope does not encode: %v", err)
		}
		back, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v\n%s", err, enc)
		}
		if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("envelope round trip is not stable (%v):\n%s\n%s", err, enc, again)
		}
	})
}
