// Package bandit implements Beta-Bernoulli Thompson sampling, the
// multi-armed bandit algorithm used by the SmartMemory agent (§5.3 of
// the SOL paper) to pick a page-access-bit scanning frequency for each
// 2 MB memory region.
//
// Each arm keeps a Beta posterior over its probability of being the
// "right" choice; selection samples from every posterior and plays the
// arm with the largest draw, which naturally balances exploration and
// exploitation.
package bandit

import (
	"fmt"

	"sol/internal/stats"
)

// Thompson is a Beta-Bernoulli Thompson-sampling bandit over a fixed
// set of arms. It is a view: the posteriors and the generator live in
// storage it points into, either its own (New) or a Bank's slabs
// (Bank.At), so copies of a Thompson are the same bandit. It is not
// safe for concurrent use.
type Thompson struct {
	arms []stats.Beta
	rng  *stats.RNG
}

// New returns a bandit with arms arms, each starting from a Beta(1,1)
// (uniform) prior, using rng for posterior sampling.
func New(arms int, rng *stats.RNG) (*Thompson, error) {
	if arms <= 0 {
		return nil, fmt.Errorf("bandit: arms = %d, must be positive", arms)
	}
	if rng == nil {
		return nil, fmt.Errorf("bandit: nil RNG")
	}
	t := &Thompson{arms: make([]stats.Beta, arms), rng: rng}
	t.Reset()
	return t, nil
}

// MustNew is New but panics on error.
func MustNew(arms int, rng *stats.RNG) *Thompson {
	t, err := New(arms, rng)
	if err != nil {
		panic(err)
	}
	return t
}

// Bank holds many same-shaped bandits in two pointer-free slabs — every
// posterior in one, one generator per bandit in the other — so a model
// with a bandit per memory region costs three objects, not four per
// region, and the collector has nothing in them to walk. The Bank owns
// the slabs. A Thompson from At is a window onto them for use where it
// is built: hold the Bank, not its views — a view must not outlive it.
type Bank struct {
	arms []stats.Beta // bandit i's arms are arms[i*n : (i+1)*n]
	rngs []stats.RNG
	n    int
}

// NewBank returns bandits bandits of arms arms each, all at the uniform
// prior. Bandit i samples from the generator the i-th successive
// rng.Split() yields, so a bank reproduces, draw for draw, that many
// bandits built one by one with New(arms, rng.Split()).
func NewBank(bandits, arms int, rng *stats.RNG) (*Bank, error) {
	if bandits <= 0 {
		return nil, fmt.Errorf("bandit: bandits = %d, must be positive", bandits)
	}
	if arms <= 0 {
		return nil, fmt.Errorf("bandit: arms = %d, must be positive", arms)
	}
	if rng == nil {
		return nil, fmt.Errorf("bandit: nil RNG")
	}
	b := &Bank{
		arms: make([]stats.Beta, bandits*arms),
		rngs: make([]stats.RNG, bandits),
		n:    arms,
	}
	Thompson{arms: b.arms}.Reset()
	for i := range b.rngs {
		b.rngs[i] = *rng.Split()
	}
	return b, nil
}

// At returns bandit i. The view is two words of slice header and a
// pointer; building one per use costs nothing on the heap.
func (b *Bank) At(i int) Thompson {
	lo, hi := i*b.n, (i+1)*b.n
	return Thompson{arms: b.arms[lo:hi:hi], rng: &b.rngs[i]}
}

// Arms returns the number of arms.
func (t Thompson) Arms() int { return len(t.arms) }

// Select draws one sample from each arm's posterior and returns the arm
// with the largest draw.
func (t Thompson) Select() int {
	best, bestV := 0, -1.0
	for i := range t.arms {
		if v := t.arms[i].Sample(t.rng); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Reward records the outcome of playing arm: success updates Alpha,
// failure updates Beta.
func (t Thompson) Reward(arm int, success bool) {
	if success {
		t.arms[arm].Alpha++
	} else {
		t.arms[arm].Beta++
	}
}

// Posterior returns the current Beta posterior of arm.
func (t Thompson) Posterior(arm int) stats.Beta { return t.arms[arm] }

// Mean returns the posterior mean of arm.
func (t Thompson) Mean(arm int) float64 { return t.arms[arm].Mean() }

// BestMean returns the arm with the highest posterior mean. It is the
// pure-exploitation readout used when reporting learned state.
func (t Thompson) BestMean() int {
	best, bestV := 0, t.arms[0].Mean()
	for i := 1; i < len(t.arms); i++ {
		if v := t.arms[i].Mean(); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Reset restores every arm to the uniform prior.
func (t Thompson) Reset() {
	for i := range t.arms {
		t.arms[i] = stats.Beta{Alpha: 1, Beta: 1}
	}
}

// Decay multiplies all posterior counts toward the prior by factor
// gamma in (0,1], implementing exponential forgetting. SmartMemory uses
// this so regions can re-learn after workload phase changes; without
// forgetting, an arm with thousands of historical successes would take
// thousands of failures to abandon.
func (t Thompson) Decay(gamma float64) {
	if gamma <= 0 || gamma > 1 {
		panic("bandit: decay factor out of (0,1]")
	}
	for i := range t.arms {
		a := &t.arms[i]
		a.Alpha = 1 + (a.Alpha-1)*gamma
		a.Beta = 1 + (a.Beta-1)*gamma
	}
}
