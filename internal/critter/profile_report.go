package critter

import (
	"fmt"
	"io"
	"sort"

	"critter/internal/mpi"
)

// Critical-path kernel profiling output: the user-facing report of the
// profiling tool (Section II of the paper: online execution-path analysis
// "identifies performance bottlenecks at scale" by attributing critical-path
// time to individual kernels).

// KernelProfile is one kernel's contribution to an execution path.
type KernelProfile struct {
	Key       Key
	PathTime  float64 // time attributed along the rank's execution path
	PathCount int64   // appearances along the path
	Mean      float64 // modeled mean duration
	Samples   int64   // measured samples backing the model
}

// LocalProfile returns this rank's per-kernel path attribution, sorted by
// descending path time. A kernel is on the rank's path this configuration
// iff its local frequency count is nonzero.
func (p *Profiler) LocalProfile() []KernelProfile {
	out := make([]KernelProfile, 0, len(p.k))
	for id := range p.k {
		ks := &p.k[id]
		if ks.localFreq == 0 {
			continue
		}
		m := ks.model()
		out = append(out, KernelProfile{
			Key:       p.keyAt(uint32(id)),
			PathTime:  ks.pathTime,
			PathCount: p.path.Kernels.get(uint32(id)),
			Mean:      m.Mean(),
			Samples:   m.Count(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PathTime != out[j].PathTime {
			return out[i].PathTime > out[j].PathTime
		}
		return out[i].Key.String() < out[j].Key.String()
	})
	return out
}

// criticalProfileMsg carries a rank's exec time and profile table through
// the internal allreduce.
type criticalProfileMsg struct {
	execTime float64
	profile  []KernelProfile
}

// CriticalPathProfile returns the per-kernel profile of the rank owning the
// maximal predicted execution time — the schedule's critical path.
// Collective over the world communicator; every rank receives the same
// table (treat it as read-only).
func (p *Profiler) CriticalPathProfile() []KernelProfile {
	msg := criticalProfileMsg{execTime: p.path.ExecTime, profile: p.LocalProfile()}
	g := mpi.AllreduceMsg(p.world.internal, msg, func(a, b criticalProfileMsg) criticalProfileMsg {
		if b.execTime > a.execTime {
			return b
		}
		return a
	})
	return g.profile
}

// WriteProfile renders the top-k entries of a kernel profile as a table.
func WriteProfile(w io.Writer, prof []KernelProfile, topK int) {
	total := 0.0
	for _, kp := range prof {
		total += kp.PathTime
	}
	fmt.Fprintf(w, "%-44s %12s %7s %8s %12s %8s\n",
		"kernel", "path-time", "share", "count", "mean", "samples")
	for i, kp := range prof {
		if topK > 0 && i >= topK {
			fmt.Fprintf(w, "... %d more kernels\n", len(prof)-topK)
			break
		}
		share := 0.0
		if total > 0 {
			share = 100 * kp.PathTime / total
		}
		fmt.Fprintf(w, "%-44s %12.3e %6.1f%% %8d %12.3e %8d\n",
			kp.Key, kp.PathTime, share, kp.PathCount, kp.Mean, kp.Samples)
	}
	fmt.Fprintf(w, "total attributed path time: %.6e s over %d kernels\n", total, len(prof))
}
