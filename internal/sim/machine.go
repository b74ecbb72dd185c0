package sim

import (
	"fmt"
	"math"
)

// Machine is an alpha-beta-gamma cost model of a distributed-memory computer.
// All times are in (virtual) seconds, sizes in bytes, work in flops.
//
//   - Alpha: per-message latency (one network traversal).
//   - Beta: inverse bandwidth, seconds per byte.
//   - Gamma: seconds per floating-point operation at peak.
//   - CollectiveTree: if true, collectives over p ranks cost
//     ceil(log2 p) * (Alpha + Beta*n) (binomial-tree style); if false they
//     cost a single Alpha + Beta*n super-step (flat BSP model).
//   - NoiseSigma: shape parameter of the multiplicative log-normal noise
//     applied to every sampled kernel duration. Zero disables noise.
//   - ComputeEfficiency maps a kernel's arithmetic intensity to sustained
//     fraction of peak; small kernels run far below peak on real machines,
//     which is what makes per-signature distributions differ.
//
// Defaults approximate one Stampede2 KNL node group: 1-2 us latency,
// ~12.5 GB/s injection bandwidth shared per rank, ~3 Tflop/s node across 64
// ranks (~46 Gflop/s per rank).
type Machine struct {
	Alpha      float64 // latency, seconds
	Beta       float64 // seconds per byte
	Gamma      float64 // seconds per flop at peak
	NoiseSigma float64 // log-normal sigma for duration noise

	// CollectiveTree selects log-p tree collectives (true) or flat
	// single-step collectives (false).
	CollectiveTree bool

	// MinEfficiency is the sustained fraction of peak for tiny kernels;
	// efficiency rises toward 1 as kernel flops grow past EffScaleFlops.
	MinEfficiency float64
	EffScaleFlops float64
}

// DefaultMachine returns the calibrated model used by the experiments.
func DefaultMachine() Machine {
	return Machine{
		Alpha:          2e-6,
		Beta:           1.0 / 2.0e9, // 2 GB/s per-rank effective bandwidth
		Gamma:          1.0 / 20e9,  // 20 Gflop/s sustained per rank
		NoiseSigma:     0.05,
		CollectiveTree: true,
		MinEfficiency:  0.05,
		EffScaleFlops:  5e6,
	}
}

// Validate reports whether the model parameters are usable: Alpha, Beta,
// Gamma and NoiseSigma finite and non-negative, MinEfficiency in (0,1].
// Every test is written so that NaN fails it.
func (m Machine) Validate() error {
	switch {
	case !finiteNonNegative(m.Alpha):
		return fmt.Errorf("sim: Alpha %g is negative or not finite", m.Alpha)
	case !finiteNonNegative(m.Beta):
		return fmt.Errorf("sim: Beta %g is negative or not finite", m.Beta)
	case !finiteNonNegative(m.Gamma):
		return fmt.Errorf("sim: Gamma %g is negative or not finite", m.Gamma)
	case !finiteNonNegative(m.NoiseSigma):
		return fmt.Errorf("sim: NoiseSigma %g is negative or not finite", m.NoiseSigma)
	case !(m.MinEfficiency > 0 && m.MinEfficiency <= 1):
		return fmt.Errorf("sim: MinEfficiency %g outside (0,1]", m.MinEfficiency)
	}
	return nil
}

// finiteNonNegative is x >= 0 && x < +Inf; NaN is neither.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// PtToPtTime returns the noiseless cost of moving n bytes point-to-point.
func (m Machine) PtToPtTime(n int) float64 {
	return m.Alpha + m.Beta*float64(n)
}

// CollectiveTime returns the noiseless cost of a collective moving nbytes
// per rank among p ranks: one latency and transfer per tree step (a single
// step on a flat machine). Reductions and broadcasts have this shape; a
// barrier moves 0 bytes, and the runtime's gather-style collectives pay the
// steps' latency at 0 bytes plus their total volume once (mpi.collCost).
func (m Machine) CollectiveTime(nbytes float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	steps := 1.0
	if m.CollectiveTree {
		steps = math.Ceil(math.Log2(float64(p)))
	}
	return steps * (m.Alpha + m.Beta*nbytes)
}

// ComputeTime returns the noiseless cost of a computational kernel performing
// the given flops, accounting for reduced efficiency of small kernels.
func (m Machine) ComputeTime(flops float64) float64 {
	if flops <= 0 {
		return 0
	}
	eff := 1.0
	if m.EffScaleFlops > 0 {
		eff = m.MinEfficiency + (1-m.MinEfficiency)*(flops/(flops+m.EffScaleFlops))
	}
	return flops * m.Gamma / eff
}

// Noise draws one multiplicative noise factor from the stream rng.
func (m Machine) Noise(rng *RNG) float64 {
	if m.NoiseSigma == 0 {
		return 1
	}
	return rng.LogNormal(m.NoiseSigma)
}

// Clock is a per-rank virtual clock. It is confined to its rank's coroutine;
// cross-rank synchronization happens by exchanging timestamps inside the
// message-passing runtime, never by sharing a Clock.
type Clock struct {
	now float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by dt seconds. Negative advances are
// ignored: virtual time never runs backward.
func (c *Clock) Advance(dt float64) {
	if dt > 0 {
		c.now += dt
	}
}

// AdvanceTo moves the clock to at least t.
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Reset rewinds the clock to zero (used between tuning configurations).
func (c *Clock) Reset() { c.now = 0 }
