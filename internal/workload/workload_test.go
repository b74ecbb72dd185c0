package workload

import (
	"os"
	"slices"
	"strings"
	"testing"

	"critter/internal/autotune"
	"critter/internal/critter"
)

// TestDefaultRegistryContents pins the shipped catalog: the paper's four
// case studies plus the two example workloads, in registration order.
func TestDefaultRegistryContents(t *testing.T) {
	want := []string{"capital", "slate-chol", "candmc", "slate-qr", "cholesky3d", "qr2d"}
	got := Default().Names()
	if len(got) < len(want) {
		t.Fatalf("default registry has %v, want at least %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("default registry order %v, want prefix %v", got, want)
		}
	}
	for _, name := range want {
		w, ok := Default().Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		if w.Name != name {
			t.Errorf("Lookup(%q).Name = %q", name, w.Name)
		}
		if w.Description == "" {
			t.Errorf("workload %q has no description", name)
		}
		if len(w.Policies) == 0 {
			t.Errorf("workload %q declares no default policies", name)
		}
		if len(w.Scales) == 0 {
			t.Errorf("workload %q declares no scale presets", name)
		}
		for _, preset := range w.Scales {
			st := w.Build(preset.Scale)
			if st.Size() <= 0 || st.WorldSize <= 0 || st.Run == nil {
				t.Errorf("workload %q at scale %q builds a degenerate study", name, preset.Name)
			}
		}
	}
}

// TestBuildsMatchConstructors proves registry resolution is the same
// studies the constructors build — the property the golden-envelope tests
// rely on.
func TestBuildsMatchConstructors(t *testing.T) {
	q := autotune.QuickScale()
	cases := []struct {
		workload string
		study    autotune.Study
	}{
		{"capital", autotune.CapitalCholesky(q)},
		{"slate-chol", autotune.SlateCholesky(q)},
		{"candmc", autotune.CandmcQR(q)},
		{"slate-qr", autotune.SlateQR(q)},
		{"cholesky3d", autotune.CapitalCholesky(q)},
		{"qr2d", autotune.CandmcQR(q)},
	}
	for _, tc := range cases {
		st, err := ResolveStudy(nil, tc.workload, "quick")
		if err != nil {
			t.Fatalf("ResolveStudy(%q, quick): %v", tc.workload, err)
		}
		if st.Name != tc.study.Name || st.Size() != tc.study.Size() || st.WorldSize != tc.study.WorldSize {
			t.Errorf("ResolveStudy(%q, quick) = {%s %d %d}, want {%s %d %d}",
				tc.workload, st.Name, st.Size(), st.WorldSize,
				tc.study.Name, tc.study.Size(), tc.study.WorldSize)
		}
	}
}

// TestExampleWorkloadPolicies pins the example workloads' declared default
// policies: the comparisons their example mains print.
func TestExampleWorkloadPolicies(t *testing.T) {
	cases := map[string][]critter.Policy{
		"cholesky3d": {critter.Conditional, critter.Eager},
		"qr2d":       {critter.Online},
	}
	for name, want := range cases {
		w, ok := Default().Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		got := w.Policies
		if len(got) != len(want) {
			t.Fatalf("%s policies = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s policies = %v, want %v", name, got, want)
			}
		}
	}
}

// TestRegistryErrors covers the namespace rules: empty names, a missing
// builder, unrunnable studies and duplicates are rejected.
func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Workload{Build: autotune.CandmcQR}); err == nil {
		t.Error("Register with empty name succeeded")
	}
	if err := r.Register(Workload{Name: "no-builder"}); err == nil {
		t.Error("Register of a Workload without Build succeeded")
	}
	// A workload whose study cannot run (no configurations, no runner, or
	// no ranks) is rejected at the door, sized at its first preset.
	noSpace := func(sc autotune.Scale) autotune.Study {
		st := autotune.CandmcQR(sc)
		st.Space = autotune.Space{}
		return st
	}
	if err := r.Register(Workload{Name: "no-space", Build: noSpace}); err == nil ||
		!strings.Contains(err.Error(), "no configurations") {
		t.Errorf("Register of a Workload building an empty-space study: %v", err)
	}
	noRun := func(sc autotune.Scale) autotune.Study {
		st := autotune.CandmcQR(sc)
		st.Run = nil
		return st
	}
	if err := r.Register(Workload{Name: "no-run", Build: noRun}); err == nil ||
		!strings.Contains(err.Error(), "no Run") {
		t.Errorf("Register of a Workload building a study without Run: %v", err)
	}
	noRanks := func(sc autotune.Scale) autotune.Study {
		st := autotune.CandmcQR(sc)
		st.WorldSize = 0
		return st
	}
	if err := r.Register(Workload{Name: "no-ranks", Build: noRanks}); err == nil ||
		!strings.Contains(err.Error(), "WorldSize 0") {
		t.Errorf("Register of a Workload building a study without ranks: %v", err)
	}
	w := Workload{Name: "x", Build: autotune.CandmcQR}
	if err := r.Register(w); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register(w); err == nil {
		t.Error("duplicate Register succeeded")
	}
	got, ok := r.Lookup("x")
	if !ok {
		t.Fatal("Lookup after Register failed")
	}
	// Register completes what the value leaves empty: the default/quick
	// presets and the study's own policy list.
	var scales []string
	for _, p := range got.Scales {
		scales = append(scales, p.Name)
	}
	if !slices.Equal(scales, []string{"default", "quick"}) {
		t.Errorf("stored Scales = %v, want default, quick", scales)
	}
	if want := autotune.CandmcQR(autotune.DefaultScale()).Policies; !slices.Equal(got.Policies, want) {
		t.Errorf("stored Policies = %v, want the study's %v", got.Policies, want)
	}
	if n := len(r.List()); n != 1 {
		t.Errorf("List length = %d, want 1", n)
	}
}

// TestParseStudyErrorEnumerates checks the unknown-workload error names
// every registered workload, mirroring the old switch-based message.
func TestParseStudyErrorEnumerates(t *testing.T) {
	_, err := ResolveStudy(nil, "bogus", "quick")
	if err == nil {
		t.Fatal("ResolveStudy(bogus, quick) succeeded")
	}
	for _, name := range Default().Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not enumerate workload %q", err, name)
		}
	}
}

// TestParseScaleErrorEnumerates checks a workload's declared presets
// resolve by name and the unknown-scale error enumerates them.
func TestParseScaleErrorEnumerates(t *testing.T) {
	w, _ := Default().Lookup("candmc")
	for _, name := range []string{"default", "quick"} {
		if _, err := ScaleOf(w, name); err != nil {
			t.Fatalf("ScaleOf(candmc, %s): %v", name, err)
		}
	}
	_, err := ScaleOf(w, "huge")
	if err == nil || !strings.Contains(err.Error(), "default") || !strings.Contains(err.Error(), "quick") {
		t.Errorf("ScaleOf error %q does not enumerate candmc's presets", err)
	}
}

// TestResolveStudy covers the combined name-to-study path the CLIs use:
// the scale namespace is the chosen workload's own presets.
func TestResolveStudy(t *testing.T) {
	st, err := ResolveStudy(nil, "candmc", "quick")
	if err != nil || st.Name != "candmc-qr" {
		t.Fatalf("ResolveStudy(candmc, quick) = %q, %v", st.Name, err)
	}
	if _, err := ResolveStudy(nil, "bogus", "quick"); err == nil || !strings.Contains(err.Error(), "candmc") {
		t.Errorf("unknown workload error %v does not enumerate the catalog", err)
	}
	if _, err := ResolveStudy(nil, "candmc", "huge"); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Errorf("unknown scale error %v does not enumerate candmc's presets", err)
	}

	// A preset declared by one workload does not leak into another's
	// namespace through this path.
	reg := NewRegistry()
	for _, w := range []Workload{
		{Name: "a", Build: autotune.CandmcQR,
			Scales: []ScalePreset{{Name: "tiny", Scale: autotune.QuickScale()}}},
		{Name: "b", Build: autotune.CandmcQR},
	} {
		if err := reg.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ResolveStudy(reg, "b", "tiny"); err == nil {
		t.Error("workload a's preset resolved for workload b")
	}
	if _, err := ResolveStudy(reg, "a", "tiny"); err != nil {
		t.Errorf("workload a's own preset failed to resolve: %v", err)
	}
}

// TestREADMEWorkloadTable pins the README's generated workload table to
// MarkdownTable's output: regenerating the docs is running this test with
// the new output pasted between the markers.
func TestREADMEWorkloadTable(t *testing.T) {
	const begin = "<!-- BEGIN WORKLOAD TABLE (generated: go test ./internal/workload -run TestREADMEWorkloadTable) -->\n"
	const end = "<!-- END WORKLOAD TABLE -->"
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(readme)
	i := strings.Index(s, begin)
	if i < 0 {
		t.Fatalf("README.md is missing the %q marker", strings.TrimSpace(begin))
	}
	rest := s[i+len(begin):]
	j := strings.Index(rest, end)
	if j < 0 {
		t.Fatalf("README.md is missing the %q marker", end)
	}
	if got, want := rest[:j], MarkdownTable(nil); got != want {
		t.Errorf("README workload table is stale; regenerate it from MarkdownTable:\nwant:\n%s\ngot:\n%s", want, got)
	}
}
