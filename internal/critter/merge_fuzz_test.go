package critter

// Fuzzing of MergeInto against MergeProfiles: folding into the profile a
// caller hands over must encode to exactly the bytes the copying merge
// writes, and must leave the accumulated profile as it was. Under plain
// `go test` the seed corpus runs as ordinary unit tests.

import (
	"bytes"
	"encoding/json"
	"testing"
)

func FuzzMergeInto(f *testing.F) {
	const (
		// Two kernels, one pooled; a family; path frequencies.
		base = `{"schemaVersion":1,"estimator":"ci-mean",
			"kernels":{"comp:gemm(8,8,8;0)":{"count":3,"mean":2.0917e-6,"m2":1.3e-13},
			           "comm:bcast(64,8,1;0)":{"count":5,"mean":1e-6,"m2":4e-14,"pooled":true}},
			"families":{"gemm":{"points":[{"flops":1024,"mean":3e-7},{"flops":8192,"mean":2e-6}]}},
			"pathFreqs":{"comp:gemm(8,8,8;0)":4,"comm:bcast(64,8,1;0)":9}}`
		// Overlaps base on every table: gemm's kernel (moments whose
		// Welford merge depends on the order), an equal-flops family
		// point, a path frequency below and one above base's.
		overlap = `{"schemaVersion":1,
			"kernels":{"comp:gemm(8,8,8;0)":{"count":7,"mean":3.3331e-6,"m2":2.71e-13,"pooled":true},
			           "comp:potrf(16,0,0;0)":{"count":1,"mean":4e-6,"m2":0}},
			"families":{"gemm":{"points":[{"flops":512,"mean":1e-7},{"flops":1024,"mean":4e-7},{"flops":65536,"mean":1.7e-5}]},
			            "potrf":{"points":[{"flops":4096,"mean":4e-6}]}},
			"pathFreqs":{"comp:gemm(8,8,8;0)":2,"comm:bcast(64,8,1;0)":12}}`
		// Shares no key with base.
		disjoint = `{"schemaVersion":1,"estimator":"other",
			"kernels":{"comm:allreduce(32,4,2;0)":{"count":2,"mean":8e-7,"m2":1e-15}},
			"families":{"trsm":{"points":[{"flops":2048,"mean":5e-7}]}},
			"pathFreqs":{"comm:allreduce(32,4,2;0)":3}}`
		// Nil maps throughout.
		bare = `{"schemaVersion":1}`
		// Out-of-range entries MergeProfiles still folds: a negative path
		// frequency, a family without points, a zero count.
		odd = `{"schemaVersion":1,
			"kernels":{"comp:gemm(8,8,8;0)":{"count":0,"mean":0,"m2":0}},
			"families":{"gemm":{"points":null},"syrk":{}},
			"pathFreqs":{"comp:gemm(8,8,8;0)":-3,"comp:syrk(4,4,0;0)":-1}}`
	)
	for _, seed := range [][2]string{
		{"", base}, // nil acc
		{"", bare},
		{base, ""}, // nil p
		{base, overlap},
		{overlap, base},
		{base, disjoint},
		{base, bare},
		{bare, base},
		{base, base},
		{base, odd},
		{odd, overlap},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, accJSON, pJSON []byte) {
		// Empty input is a nil profile. Each profile is decoded twice: one
		// copy for MergeProfiles, one for MergeInto to consume.
		decode := func(data []byte) (*Profile, *Profile, bool) {
			if len(data) == 0 {
				return nil, nil, true
			}
			var a, b Profile
			if json.Unmarshal(data, &a) != nil || json.Unmarshal(data, &b) != nil {
				return nil, nil, false
			}
			return &a, &b, true
		}
		acc, _, ok := decode(accJSON)
		if !ok {
			return
		}
		p1, p2, ok := decode(pJSON)
		if !ok {
			return
		}
		encode := func(p *Profile) ([]byte, error) {
			if p == nil {
				return nil, nil
			}
			return p.Encode()
		}
		accBefore, accErr := encode(acc)
		want, wantErr := encode(MergeProfiles(acc, p1))
		got, gotErr := encode(MergeInto(acc, p2))
		if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("MergeInto encodes\n%s (%v)\nMergeProfiles\n%s (%v)", got, gotErr, want, wantErr)
		}
		accAfter, err := encode(acc)
		if (err != nil) != (accErr != nil) || !bytes.Equal(accAfter, accBefore) {
			t.Fatalf("MergeInto changed acc:\n%s\nwas\n%s", accAfter, accBefore)
		}
	})
}
