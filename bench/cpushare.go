package main

// CPU shares by layer, from a runtime/pprof CPU profile of the traced
// reps. The profile's protobuf is decoded here (no module dependency, no
// subprocess): only the handful of fields the fold needs.
//
// Each sample is charged to the nearest layer frame walking up from the
// leaf: a function in one of the repository's listed packages, or
// encoding/json. Frames of other packages (runtime, sim, stats, net/http)
// are walked through, so an allocation inside mpi is mpi's time and a
// Welford update called by critter is critter's. Stacks with no layer
// frame at all go to go-gc (collector workers), go-sched (pure runtime:
// scheduler, futex, timers) or other (the harness's own frames, net/http).

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// shareNames is the fixed set of cpu_share.* metrics, in report order.
var shareNames = []string{
	"blas", "lapack", "mpi", "critter", "libs", "autotune", "surrogate",
	"service", "store", "obs", "json", "go-gc", "go-sched", "other",
}

// layerOfPackage maps critter/internal/<pkg> to its share; packages not
// listed are walked through.
var layerOfPackage = map[string]string{
	"blas": "blas", "lapack": "lapack", "mpi": "mpi", "critter": "critter",
	"capital": "libs", "slate": "libs", "candmc": "libs",
	"autotune": "autotune", "surrogate": "surrogate",
	"service": "service", "store": "store", "obs": "obs",
}

const internalPrefix = "critter/internal/"

// layerOfFunc names the share a function belongs to, or "" for a frame to
// walk through.
func layerOfFunc(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		return layerOfPackage[pkg]
	}
	if strings.HasPrefix(fn, "encoding/json.") {
		return "json"
	}
	return ""
}

// stackSample is one profile sample: function names leaf first, and its
// weight.
type stackSample struct {
	funcs []string
	value int64
}

// classify charges one stack to a share.
func classify(funcs []string) string {
	for _, fn := range funcs {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	allRuntime := true
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.gcDrain") {
			return "go-gc"
		}
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/") {
			allRuntime = false
		}
	}
	if allRuntime {
		return "go-sched"
	}
	return "other"
}

// foldShares turns samples into percentages by share; every name of
// shareNames is present.
func foldShares(samples []stackSample) map[string]float64 {
	sums := make(map[string]int64, len(shareNames))
	var total int64
	for _, s := range samples {
		sums[classify(s.funcs)] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(shareNames))
	for _, name := range shareNames {
		if total > 0 {
			out[name] = 100 * float64(sums[name]) / float64(total)
		} else {
			out[name] = 0
		}
	}
	return out
}

// --- profile.proto decoding ---

// protoReader walks one protobuf message.
type protoReader struct {
	buf []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.buf) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		b := r.buf[0]
		r.buf = r.buf[1:]
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x
		}
	}
	r.err = fmt.Errorf("varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, wire type, and either its
// varint value or its length-delimited bytes.
func (r *protoReader) next() (field int, wire int, val uint64, data []byte, ok bool) {
	if r.err != nil || len(r.buf) == 0 {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = r.varint()
	case 1:
		if len(r.buf) < 8 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.buf = r.buf[8:]
	case 2:
		n := r.varint()
		if r.err == nil && n > uint64(len(r.buf)) {
			r.err = io.ErrUnexpectedEOF
		}
		if r.err != nil {
			return 0, 0, 0, nil, false
		}
		data, r.buf = r.buf[:n], r.buf[n:]
	case 5:
		if len(r.buf) < 4 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.buf = r.buf[4:]
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return field, wire, val, data, r.err == nil
}

// repeatedVarints reads a repeated integer field occurrence, packed or not.
func repeatedVarints(wire int, val uint64, data []byte, into []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(into, val), nil
	}
	r := protoReader{buf: data}
	for len(r.buf) > 0 && r.err == nil {
		into = append(into, r.varint())
	}
	return into, r.err
}

// decodeProfile reads a (gzipped) pprof CPU profile into stack samples
// weighted by the profile's last value type (CPU nanoseconds).
func decodeProfile(raw []byte) ([]stackSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		raw, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	top := protoReader{buf: raw}
	for {
		field, wire, _, data, ok := top.next()
		if !ok {
			break
		}
		if wire != 2 {
			continue
		}
		switch field {
		case 2: // Sample
			var s rawSample
			r := protoReader{buf: data}
			for {
				f, w, v, d, ok := r.next()
				if !ok {
					break
				}
				var err error
				switch f {
				case 1:
					s.locs, err = repeatedVarints(w, v, d, s.locs)
				case 2:
					s.values, err = repeatedVarints(w, v, d, s.values)
				}
				if err != nil {
					return nil, fmt.Errorf("pprof: sample: %w", err)
				}
			}
			if r.err != nil {
				return nil, fmt.Errorf("pprof: sample: %w", r.err)
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			r := protoReader{buf: data}
			for {
				f, w, v, d, ok := r.next()
				if !ok {
					break
				}
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // Line
					lr := protoReader{buf: d}
					for {
						lf, lw, lv, _, ok := lr.next()
						if !ok {
							break
						}
						if lf == 1 && lw == 0 {
							fns = append(fns, lv)
						}
					}
				}
			}
			if r.err != nil {
				return nil, fmt.Errorf("pprof: location: %w", r.err)
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			r := protoReader{buf: data}
			for {
				f, w, v, _, ok := r.next()
				if !ok {
					break
				}
				if w == 0 && f == 1 {
					id = v
				}
				if w == 0 && f == 2 {
					name = v
				}
			}
			if r.err != nil {
				return nil, fmt.Errorf("pprof: function: %w", r.err)
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("pprof: %w", top.err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ss.funcs = append(ss.funcs, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}
