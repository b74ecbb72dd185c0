package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/store"
	"critter/internal/workload"
)

// tinyWorkload is a small workload, "tiny": two configurations of eight
// recorded kernels on two ranks, quick enough to run many jobs under the
// race detector.
func tinyWorkload() workload.Workload {
	return workload.Workload{
		Name:        "tiny",
		Description: "test workload of a few small kernels",
		Build: func(autotune.Scale) autotune.Study {
			return autotune.Study{
				Name:      "tiny",
				Space:     autotune.NewSpace(autotune.IntsDim("v", 0, 1)),
				WorldSize: 2,
				Policies:  []critter.Policy{critter.Online},
				Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
					n := 4 << v
					for i := 0; i < 8; i++ {
						p.Kernel("work", n, 0, 0, 0, float64(n*n), func() {})
					}
					cc.Barrier()
				},
			}
		},
	}
}

// tinyRegistry builds a registry holding tinyWorkload alone.
func tinyRegistry() *workload.Registry {
	reg := workload.NewRegistry()
	if err := reg.Register(tinyWorkload()); err != nil {
		panic(err)
	}
	return reg
}

// TestConcurrentMergesKeepPublishedProfiles: two runners finish cold and
// warm jobs on one workload at once, each merging into the profile store,
// while a reader encodes what Get publishes in a loop. A published profile
// never changes under the reader, no job's samples are lost, and the
// durable record is the last published profile.
func TestConcurrentMergesKeepPublishedProfiles(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Registry: tinyRegistry(), Runners: 2, Durable: st})
	defer closeNow(t, s)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := make(map[*critter.Profile][]byte)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if p := s.Store().Get("tiny"); p != nil {
				data, err := p.Encode()
				if err != nil {
					t.Error(err)
					return
				}
				if first, ok := seen[p]; !ok {
					seen[p] = data
				} else if !bytes.Equal(data, first) {
					t.Error("a published profile changed under its reader")
					return
				}
			}
			runtime.Gosched()
		}
	}()

	const body = `{"workload":"tiny","policies":["online"],"eps":[0.5,0.25],"seed":%d,"warmStart":%t}`
	var ids []string
	for seed := 1; seed <= 4; seed++ {
		for _, warm := range []bool{false, true} {
			js, err := s.SubmitJSON(fmt.Appendf(nil, body, seed, warm))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, js.ID)
		}
	}
	var samples int64
	for _, id := range ids {
		if js := waitDone(t, s, id); js.State != StateDone {
			t.Fatalf("job %s finished %s (err %q)", id, js.State, js.Error)
		}
		for _, sum := range resultEnvelope(t, s, id).Profiles {
			samples += sum.Samples
		}
	}
	close(stop)
	wg.Wait()

	final := s.Store().Get("tiny")
	if got := final.Samples(); got != samples {
		t.Errorf("store holds %d samples, the jobs learned %d", got, samples)
	}
	enc, err := final.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, enc); err != nil {
		t.Fatal(err)
	}
	if rec, ok := st.Get(kindProfile, "tiny"); !ok || !bytes.Equal(rec.Data, want.Bytes()) {
		t.Errorf("durable profile record (found %v) is not the last published profile", ok)
	}
}
