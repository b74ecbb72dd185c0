package critter

// ProfileEncoder against encoding/json: the encoder must write exactly the
// bytes json.Marshal writes for every profile, and fail where it fails.
// Under plain `go test` the fuzz seed corpus runs as ordinary unit tests.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
)

// encodedFields is every field appendProfile writes, per type, in struct
// order, as "GoName json-tag".
var encodedFields = map[string][]string{
	"Profile": {
		"SchemaVersion schemaVersion",
		"Estimator estimator,omitempty",
		"Kernels kernels,omitempty",
		"Families families,omitempty",
		"PathFreqs pathFreqs,omitempty",
	},
	"KernelModel": {"Count count", "Mean mean", "M2 m2", "Pooled pooled,omitempty"},
	"Family":      {"Points points"},
	"FamilyPoint": {"Flops flops", "Mean mean"},
}

// TestProfileEncoderCoversEveryField fails when a field is added to, removed
// from or retagged on a type the encoder writes, until appendProfile and
// encodedFields follow.
func TestProfileEncoderCoversEveryField(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[Profile](), reflect.TypeFor[KernelModel](),
		reflect.TypeFor[Family](), reflect.TypeFor[FamilyPoint](),
	} {
		var got []string
		for i := range typ.NumField() {
			f := typ.Field(i)
			got = append(got, f.Name+" "+f.Tag.Get("json"))
		}
		if want := encodedFields[typ.Name()]; !slices.Equal(got, want) {
			t.Errorf("%s has fields\n%q\nthe encoder writes\n%q", typ.Name(), got, want)
		}
	}
}

func FuzzProfileEncoder(f *testing.F) {
	// Each seed: estimator, kernel name, family name, count, a kernel's
	// mean and m2, a family point's flops, pooled, shape. shape bit 0 is the first kernel's Kind; bits 1-2 pick
	// the maps (0 nil, 1 empty, else populated); bits 3-4 the points (0 nil,
	// 1 empty, else two points).
	const full = 0b11110
	nan, inf := math.NaN(), math.Inf(1)
	type seed struct {
		est, kernel, family string
		count               int64
		mean, m2, flops     float64
		pooled              bool
		shape               uint8
	}
	for _, s := range []seed{
		{"ci-mean", "gemm", "gemm", 3, 2.0917e-6, 1.3e-13, 1024, false, full},
		{"", "bcast", "trsm", 5, 1e-6, 4e-14, 8192, true, full | 1},
		{"<&>", "a<b", "f&g", 1, 0.5, 0.25, 1, false, full},
		{"\u2028", "line\u2028sep", "para\u2029sep", 1, 1, 1, 1, true, full},
		{"\xff", "bad\xffutf8", "\xfe\xff", 1, 1, 1, 1, false, full},
		{"q\"s\\", "tab\tname", "nl\nname", 2, 1, 1, 1, false, full},
		{"", "paren(", "gemm", 1, 1, 1, 1, false, full},
		{"", "paren)", "gemm", 1, 1, 1, 1, false, full},
		{"", "gemm", "gemm", 1, nan, 1, 1, false, full},
		{"", "gemm", "gemm", 1, 1, inf, 1, false, full},
		{"", "gemm", "gemm", 1, -inf, 1, 1, false, full},
		{"", "gemm", "gemm", 1, 1, 1, nan, false, full},  // NaN in a point only
		{"", "gemm", "gemm", 1, 1, 1, -inf, false, full}, // -Inf in a point only
		{"", "gemm", "gemm", 1, nan, 1, nan, false, 0},   // nothing written carries the NaN
		{"", "gemm", "gemm", 1, 1e-6, math.Nextafter(1e-6, 0), 1e-7, false, full},
		{"", "gemm", "gemm", 1, 1e21, math.Nextafter(1e21, 0), 1e21, false, full},
		{"", "gemm", "gemm", 1, 1e-7, 1.5e-300, math.Nextafter(1e21, 0), false, full},
		{"", "gemm", "gemm", 1, -1e-9, -1e22, 1.5e-10, false, full},
		{"", "gemm", "gemm", 1, math.Copysign(0, -1), 0, math.Copysign(0, -1), false, full},
		{"", "gemm", "gemm", -7, 5e-324, math.MaxFloat64, 123456789.125, false, full},
		{"", "gemm", "gemm", 1, 1, 1, 1, false, 0b00110}, // nil points
		{"", "gemm", "gemm", 1, 1, 1, 1, false, 0b01110}, // empty points
		{"", "gemm", "gemm", 1, 1, 1, 1, true, 0b00000},  // nil maps
		{"", "gemm", "gemm", 1, 1, 1, 1, true, 0b00010},  // empty maps
		{"x", "", "", 0, 0, 0, 0, false, full},
	} {
		f.Add(s.est, s.kernel, s.family, s.count, s.mean, s.m2, s.flops, s.pooled, s.shape)
	}
	// One encoder for the whole run: its scratch carries from input to
	// input, as the service's does from job to job.
	var enc ProfileEncoder
	f.Fuzz(func(t *testing.T, est, kernel, family string, count int64, mean, m2, flops float64, pooled bool, shape uint8) {
		h, err := kernelNames.intern(kernel)
		if err != nil {
			t.Skip("kernel name table is full")
		}
		k1 := Key{name: h, P1: int32(count), P2: -1, P3: int32(shape), P4: 0, Kind: Kind(shape & 1)}
		k2 := CompKey("gemm", 8, 8, 8, 0)
		p := &Profile{SchemaVersion: int(count), Estimator: est}
		var pts []FamilyPoint
		switch shape >> 3 & 3 {
		case 0:
		case 1:
			pts = []FamilyPoint{}
		default:
			pts = []FamilyPoint{{Flops: flops, Mean: 1}, {Flops: 2, Mean: flops}}
		}
		switch shape >> 1 & 3 {
		case 0:
		case 1:
			p.Kernels, p.Families, p.PathFreqs = map[Key]KernelModel{}, map[string]Family{}, map[Key]int64{}
		default:
			p.Kernels = map[Key]KernelModel{
				k1: {Count: count, Mean: mean, M2: m2, Pooled: pooled},
				k2: {Count: count + 1, Mean: 1, M2: 2, Pooled: !pooled},
			}
			p.Families = map[string]Family{family: {Points: pts}, "gemm": {Points: pts}}
			p.PathFreqs = map[Key]int64{k1: count, k2: -count}
		}
		want, wantErr := json.Marshal(p)
		prefix := []byte("prefix")
		got, gotErr := enc.Append(prefix, p)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("encoder error %v, json.Marshal error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if !bytes.Equal(got, prefix) {
				t.Fatalf("failed Append returned %q, want its dst %q", got, prefix)
			}
			return
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("encoder wrote\n%s\njson.Marshal\n%s", got, want)
		}
	})
}
