// Package critter implements the paper's contribution: an online
// execution-path profiler that accelerates distributed-memory autotuning by
// selectively executing computation and communication kernels.
//
// A kernel is a routine with a particular input size (its signature). Each
// rank maintains a statistical profile (single-pass mean and variance) per
// kernel signature; once a kernel's sample-mean confidence interval —
// optionally shrunk by the square root of its execution count along the
// current sub-critical path — falls below the confidence tolerance epsilon,
// further invocations are skipped and replaced by the model mean.
//
// Profiles and critical-path costs propagate between ranks by piggybacking
// internal messages on the application's own communication, following the
// mechanism of Figure 2 in the paper: an internal allreduce before each
// collective (doubling as the skip-decision agreement protocol), an internal
// exchange around each point-to-point pair, and a one-way internal message
// for nonblocking sends whose reply is consumed at the sender's next
// Waitall.
package critter

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a kernel as computation or communication.
type Kind uint8

// Kernel kinds.
const (
	KindComp Kind = iota
	KindComm
)

// Key is a kernel signature: a program routine together with the input-size
// parameters that determine its performance distribution.
//
// Computation kernels are parameterized on matrix dimensions and flags
// (P1..P3 dims, P4 flags such as transposition). Communication kernels are
// parameterized on message size in words (P1), sub-communicator size (P2),
// and sub-communicator stride relative to the world communicator (P3), with
// point-to-point configurations treated as size-2 sub-communicators, as in
// Section V-D of the paper.
//
// A Key is 24 bytes of plain memory: the routine is a handle into the
// process-wide table of kernel names, and Kind comes last, so a Key holds no
// pointer and no interior padding. The runtime hashes and compares it as one
// block, and the collector never scans a Key-keyed map. Handles are
// process-local: nothing serializes one (MarshalText writes the name) and
// nothing is ordered by one. Build keys with CompKey or CommKey, or decode
// them with UnmarshalText; parameters outside int32 are refused.
type Key struct {
	name kernelName
	P1   int32
	P2   int32
	P3   int32
	P4   int32
	Kind Kind
}

// CompKey builds a computation-kernel signature. It panics on a parameter
// outside int32 and on a new name past the name table's bound.
func CompKey(name string, p1, p2, p3, p4 int) Key {
	return compKey(internName(name), p1, p2, p3, p4)
}

// CommKey builds a communication-kernel signature. It panics like CompKey.
func CommKey(op string, words, commSize, commStride int) Key {
	return commKey(internName(op), words, commSize, commStride)
}

// compKey and commKey are CompKey and CommKey for a name already interned:
// the interception paths, which name their routines by package-level handles.
func compKey(name kernelName, p1, p2, p3, p4 int) Key {
	return Key{name: name, P1: param(p1), P2: param(p2), P3: param(p3), P4: param(p4), Kind: KindComp}
}

func commKey(op kernelName, words, commSize, commStride int) Key {
	return Key{name: op, P1: param(words), P2: param(commSize), P3: param(commStride), Kind: KindComm}
}

// param narrows a signature parameter to the Key's int32 field.
func param(v int) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		panic(fmt.Sprintf("critter: kernel parameter %d outside int32", v))
	}
	return int32(v)
}

// Name returns the kernel's routine name.
func (k Key) Name() string { return k.name.String() }

// String renders the key for diagnostics.
func (k Key) String() string {
	if k.Kind == KindComm {
		return fmt.Sprintf("comm:%s(words=%d,size=%d,stride=%d)", k.Name(), k.P1, k.P2, k.P3)
	}
	return fmt.Sprintf("comp:%s(%d,%d,%d;%d)", k.Name(), k.P1, k.P2, k.P3, k.P4)
}

// MarshalText encodes the key in the stable form used by serialized
// profiles, "comp:name(p1,p2,p3;p4)" or "comm:name(p1,p2,p3;p4)", so maps
// keyed by Key serialize as readable JSON objects. Names containing '(' or
// ')' are rejected: they would make the encoding ambiguous.
func (k Key) MarshalText() ([]byte, error) { return k.appendText(nil) }

// appendText appends MarshalText's encoding to dst, or returns dst and the
// error MarshalText returns.
func (k Key) appendText(dst []byte) ([]byte, error) {
	name := k.Name()
	if strings.ContainsAny(name, "()") {
		return dst, fmt.Errorf("critter: kernel name %q not encodable (contains parentheses)", name)
	}
	if k.Kind == KindComm {
		dst = append(dst, "comm:"...)
	} else {
		dst = append(dst, "comp:"...)
	}
	dst = append(dst, name...)
	dst = append(dst, '(')
	dst = strconv.AppendInt(dst, int64(k.P1), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(k.P2), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(k.P3), 10)
	dst = append(dst, ';')
	dst = strconv.AppendInt(dst, int64(k.P4), 10)
	return append(dst, ')'), nil
}

// UnmarshalText decodes the encoding produced by MarshalText. It refuses a
// parameter outside int32 and a new name once the name table is full.
func (k *Key) UnmarshalText(text []byte) error {
	s := string(text)
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return fmt.Errorf("critter: bad key %q: missing kind separator", s)
	}
	var out Key
	switch kind {
	case "comp":
		out.Kind = KindComp
	case "comm":
		out.Kind = KindComm
	default:
		return fmt.Errorf("critter: bad key %q: unknown kind %q", s, kind)
	}
	open := strings.IndexByte(rest, '(')
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return fmt.Errorf("critter: bad key %q: malformed parameter list", s)
	}
	name := rest[:open]
	if strings.ContainsAny(name, "()") {
		return fmt.Errorf("critter: bad key %q: parenthesized name", s)
	}
	params := rest[open+1 : len(rest)-1]
	head, p4, ok := strings.Cut(params, ";")
	if !ok {
		return fmt.Errorf("critter: bad key %q: missing flags field", s)
	}
	fields := strings.Split(head, ",")
	if len(fields) != 3 {
		return fmt.Errorf("critter: bad key %q: want 3 dims, got %d", s, len(fields))
	}
	for i, dst := range []*int32{&out.P1, &out.P2, &out.P3} {
		v, err := strconv.ParseInt(fields[i], 10, 32)
		if err != nil {
			return fmt.Errorf("critter: bad key %q: dim %d: %v", s, i+1, err)
		}
		*dst = int32(v)
	}
	v, err := strconv.ParseInt(p4, 10, 32)
	if err != nil {
		return fmt.Errorf("critter: bad key %q: flags: %v", s, err)
	}
	out.P4 = int32(v)
	if out.name, err = kernelNames.intern(name); err != nil {
		return fmt.Errorf("critter: bad key %q: %v", s, err)
	}
	*k = out
	return nil
}

// kernelName is a handle to a kernel routine's name in kernelNames. Handle
// 0 is the empty name, so the zero Key names "".
type kernelName uint32

// String returns the name the handle stands for.
func (n kernelName) String() string { return (*kernelNames.names.Load())[n] }

// maxKernelNames bounds the distinct names the process will intern, so
// decoding untrusted text cannot grow the table without limit: past it
// UnmarshalText refuses a new name and the constructors panic.
const maxKernelNames = 1 << 16

// nameTable is the process-wide, append-only table of kernel names. A lookup
// by name takes mu's read lock and an addition its write lock. A handle's name
// is read from the slice the last addition published, whose entries never
// change once written, so Name takes no lock: every rank reads names on
// traced rounds and, with Options.Extrapolate, on every computation kernel.
type nameTable struct {
	mu    sync.RWMutex
	ids   map[string]kernelName // guarded by mu
	names atomic.Pointer[[]string]
}

var kernelNames = newNameTable()

func newNameTable() *nameTable {
	t := &nameTable{ids: map[string]kernelName{"": 0}}
	names := []string{""}
	t.names.Store(&names)
	return t
}

// intern returns name's handle, assigning the next one on first sight, or
// an error once the table holds maxKernelNames names.
func (t *nameTable) intern(name string) (kernelName, error) {
	t.mu.RLock()
	h, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return h, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.ids[name]; ok {
		return h, nil
	}
	names := *t.names.Load()
	if len(names) >= maxKernelNames {
		return 0, fmt.Errorf("more than %d distinct kernel names", maxKernelNames)
	}
	// The table outlives the caller's text: keep a copy, not a substring.
	name = strings.Clone(name)
	h = kernelName(len(names))
	names = append(names, name)
	t.ids[name] = h
	t.names.Store(&names)
	return h, nil
}

// internName is kernelNames.intern for the constructors, which panic where
// UnmarshalText returns the error.
func internName(name string) kernelName {
	h, err := kernelNames.intern(name)
	if err != nil {
		panic("critter: " + err.Error())
	}
	return h
}

// Policy selects how kernel execution counts and statistics propagate
// between ranks to drive skip decisions (Section IV-B of the paper).
type Policy uint8

// Selective-execution policies, ordered as introduced by the paper.
const (
	// Conditional execution never credits execution counts: a kernel is
	// skipped only when its unscaled confidence interval meets epsilon.
	// The most conservative method.
	Conditional Policy = iota
	// Local propagation credits each kernel's locally observed execution
	// count (no inter-rank propagation).
	Local
	// Online propagation piggybacks critical-path execution counts on
	// application communication; the count along the current sub-critical
	// path shrinks the confidence interval by sqrt(count).
	Online
	// APriori forgoes online count propagation by taking critical-path
	// counts from a preceding full execution of the configuration.
	APriori
	// Eager skips a kernel once any rank deems it predictable and its
	// statistics have been propagated across the whole processor grid via
	// aggregate channels. Kernel models persist across configurations.
	Eager
)

// String returns the policy name as used in the paper's figures.
func (p Policy) String() string {
	switch p {
	case Conditional:
		return "conditional"
	case Local:
		return "local"
	case Online:
		return "online"
	case APriori:
		return "apriori"
	case Eager:
		return "eager"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// MarshalJSON encodes the policy by name, so serialized experiment results
// stay readable and stable if the numeric ordering ever changes.
func (p Policy) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(p.String())), nil
}

// UnmarshalJSON decodes a policy from its name, completing the round trip
// for serialized experiment results. Per encoding/json convention, null
// leaves the value unchanged.
func (p *Policy) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	name, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("critter: policy must be a JSON string: %s", data)
	}
	parsed, err := ParsePolicy(name)
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// ParsePolicy resolves a policy name as used in flags and figures.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range Policies {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("critter: unknown policy %q", name)
}

// Policies lists all selective-execution policies in presentation order.
var Policies = []Policy{Conditional, Local, Online, APriori, Eager}
