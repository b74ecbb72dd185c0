package grid

// The libraries' deterministic test matrices, functions of the global
// coordinates alone, so every rank of every distribution generates
// consistent data.

// SPDEntry is entry (i, j) of the symmetric positive definite test matrix
// 1/(1+|i-j|) with boost added on the diagonal.
func SPDEntry(i, j int, boost float64) float64 {
	d := i - j
	if d < 0 {
		d = -d
	}
	v := 1.0 / float64(1+d)
	if i == j {
		v += boost
	}
	return v
}

// GeneralEntry is entry (i, j) of the dense test matrix: a pseudo-random
// value in [-1, 1) hashed from seed and the coordinates.
func GeneralEntry(i, j int, seed uint64) float64 {
	h := seed + uint64(i)*0x9e3779b97f4a7c15 + uint64(j)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return 2*float64(h>>11)/(1<<53) - 1
}
