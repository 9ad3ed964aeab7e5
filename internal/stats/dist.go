package stats

import "math"

// Zipf draws integers in [0, n) with a Zipf(s) popularity skew:
// P(k) ∝ 1/(k+1)^s. It is used to generate the highly skewed page
// popularity that the SmartMemory evaluation depends on. Sampling uses
// a precomputed CDF with binary search, so draws are O(log n) and
// deterministic given the RNG.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf n must be positive")
	}
	if s <= 0 {
		panic("stats: Zipf exponent must be positive")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// N returns the size of the sampler's support.
func (z *Zipf) N() int { return len(z.cdf) }

// Draw returns one sample in [0, N()).
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Weight returns the probability mass of rank k.
func (z *Zipf) Weight(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// Beta holds the parameters of a Beta(alpha, beta) distribution. It is
// the conjugate prior used by the Thompson-sampling bandit in
// SmartMemory: each observation of a well- or badly-sampled epoch
// increments one of the two counts.
type Beta struct {
	Alpha float64
	Beta  float64
}

// Mean returns alpha/(alpha+beta).
func (b Beta) Mean() float64 { return b.Alpha / (b.Alpha + b.Beta) }

// Sample draws from the Beta distribution using two Gamma draws.
func (b Beta) Sample(rng *RNG) float64 {
	x := sampleGamma(rng, b.Alpha)
	y := sampleGamma(rng, b.Beta)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// sampleGamma draws from Gamma(shape, 1) using the Marsaglia–Tsang
// method, with the standard boost for shape < 1.
func sampleGamma(rng *RNG, shape float64) float64 {
	if shape <= 0 {
		panic("stats: Gamma shape must be positive")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return sampleGamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Poisson draws a Poisson(lambda) sample. For the small-to-moderate
// rates the workload generators use per tick, Knuth's method is fine;
// large rates fall back to a normal approximation.
func Poisson(rng *RNG, lambda float64) int {
	var p PoissonSampler
	return p.Draw(rng, lambda)
}

// PoissonSampler is Poisson for a caller that draws every tick at a
// rate that rarely changes: it remembers the last lambda and its Knuth
// threshold exp(-lambda), so a repeated rate costs no math.Exp. The
// RNG draws and the results are exactly Poisson's. Keep one next to
// each RNG stream whose rate moves independently. The zero value is
// ready to use.
type PoissonSampler struct {
	lambda, limit float64
}

// Draw returns one Poisson(lambda) sample from rng.
func (s *PoissonSampler) Draw(rng *RNG, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		x := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if x < 0 {
			return 0
		}
		return int(x + 0.5)
	}
	if lambda != s.lambda {
		s.lambda, s.limit = lambda, math.Exp(-lambda)
	}
	l := s.limit
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
