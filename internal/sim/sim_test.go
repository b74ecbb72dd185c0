package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between distinct seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(uint8) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(1234)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestLogNormalMedianAndPositivity(t *testing.T) {
	r := NewRNG(99)
	const n = 100000
	above := 0
	for i := 0; i < n; i++ {
		x := r.LogNormal(0.3)
		if x <= 0 {
			t.Fatalf("log-normal produced non-positive %g", x)
		}
		if x > 1 {
			above++
		}
	}
	frac := float64(above) / n
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("log-normal median fraction above 1 = %g, want ~0.5", frac)
	}
}

func TestMixSensitivity(t *testing.T) {
	a := Mix(1, 2, 3)
	b := Mix(1, 2, 4)
	c := Mix(1, 3, 2)
	if a == b || a == c || b == c {
		t.Fatalf("Mix collisions: %x %x %x", a, b, c)
	}
	if Mix(1, 2, 3) != a {
		t.Fatal("Mix is not deterministic")
	}
}

func TestMachineValidate(t *testing.T) {
	m := DefaultMachine()
	if err := m.Validate(); err != nil {
		t.Fatalf("default machine invalid: %v", err)
	}
	bad := m
	bad.Alpha = -1
	if bad.Validate() == nil {
		t.Error("negative alpha accepted")
	}
	bad = m
	bad.MinEfficiency = 0
	if bad.Validate() == nil {
		t.Error("zero MinEfficiency accepted")
	}
	bad = m
	bad.NoiseSigma = -0.1
	if bad.Validate() == nil {
		t.Error("negative noise accepted")
	}
	// NaN compares false with everything, so a test of the form x < 0
	// lets it through; every field must reject NaN and both infinities.
	fields := map[string]func(*Machine) *float64{
		"Alpha":         func(m *Machine) *float64 { return &m.Alpha },
		"Beta":          func(m *Machine) *float64 { return &m.Beta },
		"Gamma":         func(m *Machine) *float64 { return &m.Gamma },
		"NoiseSigma":    func(m *Machine) *float64 { return &m.NoiseSigma },
		"MinEfficiency": func(m *Machine) *float64 { return &m.MinEfficiency },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad = m
			*field(&bad) = v
			if bad.Validate() == nil {
				t.Errorf("%s = %g accepted", name, v)
			}
		}
	}
}

func TestPtToPtTimeMonotone(t *testing.T) {
	m := DefaultMachine()
	if m.PtToPtTime(0) != m.Alpha {
		t.Errorf("zero-byte message should cost alpha, got %g", m.PtToPtTime(0))
	}
	prev := 0.0
	for _, n := range []int{1, 10, 100, 1000, 100000} {
		c := m.PtToPtTime(n)
		if c <= prev {
			t.Errorf("cost not increasing at %d bytes", n)
		}
		prev = c
	}
}

func TestCollectiveTimeTreeVsFlat(t *testing.T) {
	m := DefaultMachine()
	m.CollectiveTree = true
	tree := m.CollectiveTime(1024, 16)
	m.CollectiveTree = false
	flat := m.CollectiveTime(1024, 16)
	if tree <= flat {
		t.Errorf("tree collective (%g) should cost more than flat (%g) for p=16", tree, flat)
	}
	if m.CollectiveTime(1024, 1) != 0 {
		t.Error("single-rank collective should be free")
	}
}

func TestComputeTimeEfficiency(t *testing.T) {
	m := DefaultMachine()
	// Per-flop cost must decrease with kernel size (efficiency rises).
	small := m.ComputeTime(1e3) / 1e3
	large := m.ComputeTime(1e9) / 1e9
	if small <= large {
		t.Errorf("per-flop cost should shrink with size: small %g, large %g", small, large)
	}
	if m.ComputeTime(0) != 0 || m.ComputeTime(-5) != 0 {
		t.Error("non-positive flops should cost zero")
	}
	// Large kernels approach gamma.
	if ratio := large / m.Gamma; ratio > 1.05 {
		t.Errorf("large-kernel per-flop cost %g too far above gamma %g", large, m.Gamma)
	}
}

func TestNoiseDisabled(t *testing.T) {
	m := DefaultMachine()
	m.NoiseSigma = 0
	r := NewRNG(5)
	for i := 0; i < 10; i++ {
		if f := m.Noise(r); f != 1 {
			t.Fatalf("noise with sigma=0 should be 1, got %g", f)
		}
	}
}

func TestNoiseMeanNearOne(t *testing.T) {
	m := DefaultMachine()
	m.NoiseSigma = 0.05
	r := NewRNG(11)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += m.Noise(r)
	}
	mean := sum / n
	if mean < 0.99 || mean > 1.02 {
		t.Errorf("noise mean = %g, want ~exp(sigma^2/2)=1.00125", mean)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	c.Advance(1.5)
	c.Advance(-3) // ignored
	if c.Now() != 1.5 {
		t.Fatalf("clock = %g, want 1.5", c.Now())
	}
	c.AdvanceTo(1.0) // no rewind
	if c.Now() != 1.5 {
		t.Fatal("AdvanceTo rewound the clock")
	}
	c.AdvanceTo(2.5)
	if c.Now() != 2.5 {
		t.Fatalf("clock = %g, want 2.5", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset did not zero the clock")
	}
}

func TestClockAdvanceNeverNegativeProperty(t *testing.T) {
	if err := quick.Check(func(steps []float64) bool {
		var c Clock
		prev := 0.0
		for _, dt := range steps {
			c.Advance(dt)
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
