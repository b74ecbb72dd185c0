package critter

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// ProfileEncoder appends the compact JSON of a Profile: exactly the bytes
// json.Marshal writes for it, without reflection. Its zero value is ready
// to use. It keeps its scratch (the key texts and the sorted entries of the
// last profile) between calls, so a caller that encodes profile after
// profile allocates only what its destination grows by. It is not safe for
// concurrent use.
type ProfileEncoder struct {
	arena   []byte // the key texts of the map being written
	kernels []keyed[KernelModel]
	freqs   []keyed[int64]
	names   []string
}

// keyed is one entry of a Key-keyed map: its key's text, arena[lo:hi] of
// the encoder, and its value.
type keyed[V any] struct {
	lo, hi int
	v      V
}

// Append appends json.Marshal(p)'s bytes to dst; p must not be nil. On an
// error — a kernel name MarshalText refuses, or a NaN or infinite float,
// which json.Marshal refuses too — it returns dst as it was passed in.
func (e *ProfileEncoder) Append(dst []byte, p *Profile) ([]byte, error) {
	out, err := e.appendProfile(dst, p)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// appendProfile writes p's fields in struct order, each with its omitempty:
// a map of length 0 and an empty estimator are left out.
func (e *ProfileEncoder) appendProfile(dst []byte, p *Profile) ([]byte, error) {
	var err error
	dst = append(dst, `{"schemaVersion":`...)
	dst = strconv.AppendInt(dst, int64(p.SchemaVersion), 10)
	if p.Estimator != "" {
		dst = append(dst, `,"estimator":`...)
		dst = appendString(dst, p.Estimator)
	}
	if len(p.Kernels) > 0 {
		if e.arena, e.kernels, err = sortedByText(e.arena, e.kernels, p.Kernels); err != nil {
			return dst, err
		}
		dst = append(dst, `,"kernels":{`...)
		for i, ent := range e.kernels {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, e.arena[ent.lo:ent.hi])
			dst = append(dst, `:{"count":`...)
			dst = strconv.AppendInt(dst, ent.v.Count, 10)
			dst = append(dst, `,"mean":`...)
			if dst, err = appendFloat(dst, ent.v.Mean); err != nil {
				return dst, err
			}
			dst = append(dst, `,"m2":`...)
			if dst, err = appendFloat(dst, ent.v.M2); err != nil {
				return dst, err
			}
			if ent.v.Pooled {
				dst = append(dst, `,"pooled":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	if len(p.Families) > 0 {
		e.names = e.names[:0]
		for name := range p.Families {
			e.names = append(e.names, name)
		}
		slices.Sort(e.names)
		dst = append(dst, `,"families":{`...)
		for i, name := range e.names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, name)
			dst = append(dst, `:{"points":`...)
			if dst, err = appendPoints(dst, p.Families[name].Points); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
		// The names are the profile's strings: keep the capacity, not them.
		clear(e.names)
	}
	if len(p.PathFreqs) > 0 {
		if e.arena, e.freqs, err = sortedByText(e.arena, e.freqs, p.PathFreqs); err != nil {
			return dst, err
		}
		dst = append(dst, `,"pathFreqs":{`...)
		for i, ent := range e.freqs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, e.arena[ent.lo:ent.hi])
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, ent.v, 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// appendPoints writes a family's points; nil is null, as json.Marshal
// writes a nil slice.
func appendPoints(dst []byte, pts []FamilyPoint) ([]byte, error) {
	if pts == nil {
		return append(dst, "null"...), nil
	}
	var err error
	dst = append(dst, '[')
	for i, pt := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"flops":`...)
		if dst, err = appendFloat(dst, pt.Flops); err != nil {
			return dst, err
		}
		dst = append(dst, `,"mean":`...)
		if dst, err = appendFloat(dst, pt.Mean); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// sortedByText refills ents from m, each key's text appended to the reset
// arena, and sorts them by that text: the order encoding/json gives a map
// whose keys are TextMarshalers. Both are grown once up front (a key's text
// is about 32 bytes), so a fresh encoder does not regrow them key by key.
func sortedByText[V any](arena []byte, ents []keyed[V], m map[Key]V) ([]byte, []keyed[V], error) {
	arena, ents = slices.Grow(arena[:0], 32*len(m)), slices.Grow(ents[:0], len(m))
	var err error
	for k, v := range m {
		lo := len(arena)
		if arena, err = k.appendText(arena); err != nil {
			return arena, ents, err
		}
		ents = append(ents, keyed[V]{lo: lo, hi: len(arena), v: v})
	}
	slices.SortFunc(ents, func(a, b keyed[V]) int {
		return bytes.Compare(arena[a.lo:a.hi], arena[b.lo:b.hi])
	})
	return arena, ents, nil
}

// appendFloat writes f as encoding/json's float encoder does: 'f' format,
// or 'e' when |f| < 1e-6 or |f| >= 1e21, with the exponent's leading zero
// dropped (e-09 becomes e-9). NaN and ±Inf are an error.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("critter: profile value %v not encodable in JSON", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendString writes s as a JSON string. Printable ASCII other than
// `"`, `\`, `<`, `>` and `&` is copied as is; anything else goes through
// json.Marshal, so every escape is exactly encoding/json's.
func appendString[S string | []byte](dst []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < ' ' || b >= utf8.RuneSelf || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			quoted, _ := json.Marshal(string(s)) // a string always encodes
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
