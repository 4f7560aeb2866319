// Package mathx provides the numeric substrate shared by the litegpu
// models: a deterministic random number generator, the probability
// distributions the workload and failure models draw from, summary
// statistics, and a bisection root finder.
//
// Everything stochastic in this repository flows through mathx.RNG with an
// explicit seed so that every experiment regenerates byte-identically.
package mathx

import "math"

// RNG is a deterministic pseudo-random generator based on SplitMix64.
// SplitMix64 passes BigCrush, needs only one uint64 of state, and — unlike
// math/rand's global generator — makes seeding explicit and cheap, which is
// what reproducible simulation requires. The zero value is a valid
// generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds yield
// independent-looking streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// Use the top 53 bits for a full-precision mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Split returns a new generator whose stream is independent of r's
// continued output. It is used to give each simulated component its own
// stream so that adding draws in one component does not perturb another.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0xD1B54A32D192ED03}
}

// Exponential returns a draw from the exponential distribution with the
// given rate (events per unit time). Mean is 1/rate.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	u := r.Float64()
	// 1-u is in (0, 1], avoiding log(0).
	return -math.Log(1-u) / rate
}

// Normal returns a draw from the normal distribution N(mu, sigma²) using
// the Box–Muller transform.
func (r *RNG) Normal(mu, sigma float64) float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	// Guard against u1 == 0.
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// LogNormal returns a draw whose logarithm is N(mu, sigma²). Production
// LLM token-length distributions are well approximated by lognormals.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Poisson returns a draw from the Poisson distribution with the given
// mean. It uses Knuth's method for small means and a normal approximation
// for large ones, which is accurate to within the needs of workload
// synthesis.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction.
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Weibull returns a draw from the Weibull distribution with the given
// shape k and scale lambda. Shape < 1 models infant mortality, shape == 1
// is exponential, shape > 1 models wear-out — the standard menu for
// hardware lifetime modeling.
func (r *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return math.Inf(1)
	}
	u := r.Float64()
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// DeriveSeed deterministically derives an independent-looking child seed
// from a base seed and a point index. Parallel sweeps use it to give
// every grid cell its own RNG stream keyed by the cell's position, so a
// sweep's results are byte-identical no matter how many workers ran it
// or in what order. The mixing is the SplitMix64 output function applied
// to the (base, index) pair, matching the quality of RNG.Split.
func DeriveSeed(base uint64, index uint64) uint64 {
	z := base + 0x9E3779B97F4A7C15*(index+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// LogNormalParams converts a desired median and p99 into (mu, sigma) for
// LogNormal. The median of a lognormal is exp(mu) and quantiles scale with
// sigma; this helper lets trace generators pin published medians directly.
func LogNormalParams(median, p99 float64) (mu, sigma float64) {
	if median <= 0 || p99 <= median {
		return math.Log(math.Max(median, 1)), 0
	}
	mu = math.Log(median)
	// Phi^-1(0.99) = 2.3263478740408408
	const z99 = 2.3263478740408408
	sigma = (math.Log(p99) - mu) / z99
	return mu, sigma
}
