package critter

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestKeyLayout pins the signature's layout: at most 24 bytes, no field that
// holds a pointer and no padding between fields, so the runtime hashes and
// compares a Key as one block of memory and the collector skips Key-keyed
// maps.
func TestKeyLayout(t *testing.T) {
	if n := unsafe.Sizeof(Key{}); n > 24 {
		t.Errorf("Key is %d bytes, want at most 24", n)
	}
	typ := reflect.TypeOf(Key{})
	end := uintptr(0)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int32, reflect.Uint32, reflect.Uint8:
		default:
			t.Errorf("field %s is a %s, not a pointer-free scalar", f.Name, f.Type)
		}
		if f.Offset != end {
			t.Errorf("field %s at offset %d, want %d: padding before it", f.Name, f.Offset, end)
		}
		end = f.Offset + f.Type.Size()
	}
}

// TestKeyParamsOutsideInt32: the constructors refuse a parameter a Key
// cannot hold instead of truncating it.
func TestKeyParamsOutsideInt32(t *testing.T) {
	for _, build := range []func(){
		func() { CompKey("gemm", math.MaxInt32+1, 0, 0, 0) },
		func() { CompKey("gemm", 0, 0, 0, math.MinInt32-1) },
		func() { CommKey("bcast", 1<<40, 8, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a parameter outside int32 built a Key")
				}
			}()
			build()
		}()
	}
	k := CompKey("gemm", math.MaxInt32, math.MinInt32, 0, 0)
	if k.P1 != math.MaxInt32 || k.P2 != math.MinInt32 {
		t.Errorf("int32 bounds not kept: %v", k)
	}
}

// kernelNamesRun makes each run of TestKernelNamesConcurrent intern names
// no earlier run (-count) has.
var kernelNamesRun atomic.Int64

// TestKernelNamesConcurrent: goroutines interning overlapping sets of new
// names at once agree on every handle, and each handle names its string.
func TestKernelNamesConcurrent(t *testing.T) {
	const workers, names = 8, 64
	run := kernelNamesRun.Add(1)
	handles := make([][]kernelName, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w covers names w*names/2 .. w*names/2+names-1, so each
			// name is interned by two workers, in opposite directions.
			hs := make([]kernelName, names)
			for i := range names {
				j := i
				if w%2 == 1 {
					j = names - 1 - i
				}
				n := fmt.Sprintf("concurrent-%d-%d", run, w*names/2+j)
				k := CompKey(n, j, 0, 0, 0)
				if k.Name() != n {
					t.Errorf("worker %d: %q came back as %q", w, n, k.Name())
				}
				hs[j] = k.name
			}
			handles[w] = hs
		}()
	}
	wg.Wait()
	want := map[string]kernelName{}
	for w, hs := range handles {
		for j, h := range hs {
			n := fmt.Sprintf("concurrent-%d-%d", run, w*names/2+j)
			if prev, ok := want[n]; ok && prev != h {
				t.Errorf("%q interned as %d and as %d", n, prev, h)
			}
			want[n] = h
			if h.String() != n {
				t.Errorf("handle %d names %q, want %q", h, h.String(), n)
			}
		}
	}
	seen := map[kernelName]string{}
	for n, h := range want {
		if other, ok := seen[h]; ok {
			t.Errorf("%q and %q share handle %d", n, other, h)
		}
		seen[h] = n
	}
}

// TestKernelNamesBounded: past maxKernelNames a table refuses a new name but
// still answers the names it holds. (A private table, so the process-wide
// one stays usable.)
func TestKernelNamesBounded(t *testing.T) {
	tab := newNameTable()
	for i := 1; i < maxKernelNames; i++ {
		if _, err := tab.intern(strconv.Itoa(i)); err != nil {
			t.Fatalf("name %d of %d refused: %v", i, maxKernelNames, err)
		}
	}
	if _, err := tab.intern("one-too-many"); err == nil {
		t.Error("a full table took a new name")
	}
	if h, err := tab.intern("7"); err != nil || h != 7 {
		t.Errorf("a full table answered a known name with %d, %v", h, err)
	}
}
