package autotune

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestSpaceEncodeDecodeRoundTrip(t *testing.T) {
	sp := NewSpace(IntsDim("ib", 1, 2, 4), IntsDim("nb", 4, 6, 8, 12, 24, 4, 6),
		GridsDim("grid", [2]int{4, 2}, [2]int{2, 4}, [2]int{8, 1}))
	if sp.Size() != 63 {
		t.Fatalf("size = %d, want 63", sp.Size())
	}
	for v := 0; v < sp.Size(); v++ {
		coords := sp.Decode(v)
		if got := sp.Encode(coords); got != v {
			t.Fatalf("Encode(Decode(%d)) = %d", v, got)
		}
		for i, d := range sp.Dims {
			if coords[i] < 0 || coords[i] >= d.Size() {
				t.Fatalf("config %d: coord %d out of range for %s", v, coords[i], d.Name)
			}
		}
	}
	// Dims[0] varies fastest: the first dimension's coordinate is v % 3.
	if c := sp.Decode(5); c[0] != 2 || c[1] != 1 || c[2] != 0 {
		t.Errorf("Decode(5) = %v, want [2 1 0]", c)
	}
}

func TestSpaceDescribeAndValue(t *testing.T) {
	sp := NewSpace(IntsDim("b", 2, 4, 8), GridsDim("grid", [2]int{8, 8}, [2]int{16, 4}))
	if got := sp.Describe(4); got != "b=4 grid=16x4" {
		t.Errorf("Describe(4) = %q", got)
	}
	if got := sp.Value(4, "grid"); got != "16x4" {
		t.Errorf("Value(4, grid) = %q", got)
	}
	if got := sp.Value(4, "nope"); got != "" {
		t.Errorf("Value of unknown dim = %q, want empty", got)
	}
	if sp.Axis("b") != 0 || sp.Axis("grid") != 1 || sp.Axis("x") != -1 {
		t.Error("Axis lookup broken")
	}
}

// TestBuiltinSpaceLabels pins the built-in Space declarations to the paper's
// flat config numbering — the numbering each study's Scale method
// (capitalConfig, ...) decodes when it runs configuration v. The literals
// are the labels the studies' bespoke formatters printed before labels came
// from the Space alone, for the first, one interior, and the last
// configuration; they are compared as name=value token sets because a label
// lists the axes in Space order (slate-cholesky used to print nb before la).
func TestBuiltinSpaceLabels(t *testing.T) {
	type want struct {
		v     int
		label string
	}
	cases := []struct {
		scale string
		study Study
		size  int
		want  []want
	}{
		{"quick", CapitalCholesky(QuickScale()), 15, []want{{0, "b=2 strat=1"}, {8, "b=16 strat=2"}, {14, "b=32 strat=3"}}},
		{"quick", SlateCholesky(QuickScale()), 20, []want{{0, "nb=6 la=0"}, {11, "nb=48 la=1"}, {19, "nb=16 la=1"}}},
		{"quick", CandmcQR(QuickScale()), 15, []want{{0, "b=1 grid=4x2"}, {8, "b=8 grid=8x1"}, {14, "b=16 grid=2x4"}}},
		{"quick", SlateQR(QuickScale()), 63, []want{{0, "ib=1 nb=4 grid=4x2"}, {54, "ib=1 nb=24 grid=8x1"}, {62, "ib=4 nb=6 grid=8x1"}}},
		{"default", CapitalCholesky(DefaultScale()), 15, []want{{0, "b=2 strat=1"}, {8, "b=16 strat=2"}, {14, "b=32 strat=3"}}},
		{"default", SlateCholesky(DefaultScale()), 20, []want{{0, "nb=12 la=0"}, {11, "nb=40 la=1"}, {19, "nb=120 la=1"}}},
		{"default", CandmcQR(DefaultScale()), 15, []want{{0, "b=2 grid=8x8"}, {8, "b=16 grid=16x4"}, {14, "b=32 grid=32x2"}}},
		{"default", SlateQR(DefaultScale()), 63, []want{{0, "ib=2 nb=12 grid=16x2"}, {32, "ib=8 nb=30 grid=8x4"}, {62, "ib=8 nb=120 grid=4x8"}}},
	}
	tokens := func(label string) []string {
		f := strings.Fields(label)
		sort.Strings(f)
		return f
	}
	for _, tc := range cases {
		if tc.study.Size() != tc.size {
			t.Errorf("%s %s: %d configurations, want %d", tc.scale, tc.study.Name, tc.study.Size(), tc.size)
			continue
		}
		for _, w := range tc.want {
			if got := tc.study.Label(w.v); !reflect.DeepEqual(tokens(got), tokens(w.label)) {
				t.Errorf("%s %s config %d: label %q, want the tokens of %q",
					tc.scale, tc.study.Name, w.v, got, w.label)
			}
		}
	}
}
