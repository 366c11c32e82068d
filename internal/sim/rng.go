package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64*). Workload generators use it so that every experiment is
// reproducible from a seed without importing math/rand, whose global state
// would couple tests together.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift cannot leave the zero state.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a pseudo-random int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Zipf draws values in [0, n) with a Zipfian distribution of exponent s.
// It uses rejection-inversion sampling (Hörmann & Derflinger 1996),
// suitable for the skewed key distributions common in database workloads.
type Zipf struct {
	rng              *RNG
	n                float64
	exponent         float64
	hIntegralX1      float64
	hIntegralNumElem float64
	threshold        float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0.
// An exponent of exactly 1 is shifted by a small epsilon to stay in the
// closed-form regime.
func NewZipf(rng *RNG, s float64, n int64) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf called with non-positive n")
	}
	if s <= 0 {
		panic("sim: NewZipf called with non-positive s")
	}
	if s == 1 {
		s = 1.0000001
	}
	z := &Zipf{rng: rng, n: float64(n), exponent: s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralNumElem = z.hIntegral(z.n + 0.5)
	z.threshold = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	return z
}

// hIntegral is the antiderivative of h(x) = x^-exponent.
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2((1-z.exponent)*logX) * logX
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(-z.exponent * math.Log(x))
}

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * (1 - z.exponent)
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a series expansion near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x with a series expansion near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// Next draws the next Zipf-distributed value in [0, n). Value 0 is the
// most frequent.
func (z *Zipf) Next() int64 {
	for {
		u := z.hIntegralNumElem + z.rng.Float64()*(z.hIntegralX1-z.hIntegralNumElem)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= z.threshold || u >= z.hIntegral(k+0.5)-z.h(k) {
			return int64(k) - 1
		}
	}
}
