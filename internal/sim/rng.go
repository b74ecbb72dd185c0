// Package sim provides the virtual-time substrate used by the simulated
// message-passing runtime: per-rank clocks, an alpha-beta-gamma machine model
// that assigns costs to computation and communication, and deterministic
// noise streams that emulate run-to-run performance variability of a real
// machine (the paper's experiments ran on Stampede2, where variability was
// observed to be high).
//
// All randomness is derived from splitmix64 streams. Nothing here seeds them:
// the runtime does (package mpi) — one stream per rank from (world seed,
// rank), re-seeded from (world seed, rank, key) whenever the harness names
// the run that follows (mpi.Comm.Rekey), and one per collective round from
// (world seed, communicator context, round) — never per kernel signature. A
// fixed seed therefore yields bitwise-identical virtual timings across runs
// regardless of goroutine scheduling, and a keyed run draws the same noise
// whatever its world ran before.
package sim

import "math"

// RNG is a splitmix64 pseudo-random generator. It is tiny, allocation-free,
// and statistically adequate for timing-noise synthesis. The zero value is a
// valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. Two uniforms are consumed per call.
func (r *RNG) NormFloat64() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a log-normal variate with unit median and the given
// sigma (the shape parameter of the underlying normal).
func (r *RNG) LogNormal(sigma float64) float64 {
	return math.Exp(sigma * r.NormFloat64())
}

// Mix combines seed material into a single stream seed. It hashes each word
// through the splitmix64 finalizer so nearby inputs yield unrelated streams.
func Mix(words ...uint64) uint64 {
	var h uint64 = 0x2545f4914f6cdd1d
	for _, w := range words {
		h ^= w + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}
