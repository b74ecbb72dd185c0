package main

// The box a report came from, and a drift canary: timings from two boxes,
// or from one box whose speed moved between runs, are not comparable, and
// the reader must be able to tell that from a code change.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

type boxRecord struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readBox() boxRecord {
	b := boxRecord{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		b.Kernel = strings.TrimSpace(string(data))
	}
	return b
}

// spinSink keeps the compiler from removing the canary's loop.
var spinSink uint64

// spinMS times a fixed integer loop that touches no repository code and no
// memory, taking the fastest of five. It moves only when the box does.
func spinMS() float64 {
	best := 0.0
	for try := 0; try < 5; try++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		if d := float64(time.Since(t0).Nanoseconds()) / 1e6; try == 0 || d < best {
			best = d
		}
	}
	return best
}

// spinDriftWarning returns a warning when the canary moved by more than 5%
// between the start and the end of a workload.
func spinDriftWarning(workload string, spin [2]float64) string {
	if spin[0] <= 0 {
		return ""
	}
	drift := math.Abs(spin[1]-spin[0]) / spin[0]
	if drift <= 0.05 {
		return ""
	}
	return fmt.Sprintf("warning: %s: box.spin_ms moved %.1f%% during the run (%.2f -> %.2f ms); timings may reflect the box, not the code",
		workload, 100*drift, spin[0], spin[1])
}
