// Package qlearn implements tabular Q-learning with ε-greedy
// exploration, the reinforcement-learning model used by the
// SmartOverclock agent (§5.1 of the SOL paper).
//
// The learner maintains Q(s, a) estimates over a finite state and
// action space and updates them with the standard one-step rule
//
//	Q(s,a) ← Q(s,a) + η · (r + γ·max_a' Q(s',a') − Q(s,a))
//
// Action selection follows the learned policy with probability 1−ε and
// explores uniformly at random with probability ε, matching the paper's
// 90%/10% exploit/explore split.
package qlearn

import (
	"fmt"

	"sol/internal/stats"
)

// Config parameterizes a Q-learner.
type Config struct {
	States   int     // number of discrete states, > 0
	Actions  int     // number of discrete actions, > 0
	Alpha    float64 // learning rate η in (0, 1]
	Gamma    float64 // discount factor γ in [0, 1)
	Epsilon  float64 // exploration probability ε in [0, 1]
	InitQ    float64 // initial Q value (optimistic init encourages exploration)
	RandSeed uint64  // seed for the exploration RNG
}

func (c Config) validate() error {
	switch {
	case c.States <= 0:
		return fmt.Errorf("qlearn: States = %d, must be positive", c.States)
	case c.Actions <= 0:
		return fmt.Errorf("qlearn: Actions = %d, must be positive", c.Actions)
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("qlearn: Alpha = %v, must be in (0,1]", c.Alpha)
	case c.Gamma < 0 || c.Gamma >= 1:
		return fmt.Errorf("qlearn: Gamma = %v, must be in [0,1)", c.Gamma)
	case c.Epsilon < 0 || c.Epsilon > 1:
		return fmt.Errorf("qlearn: Epsilon = %v, must be in [0,1]", c.Epsilon)
	}
	return nil
}

// Learner is a tabular Q-learning agent. It is not safe for concurrent
// use; the SOL Model loop is the single owner.
//
// The Q-table is one States×Actions slab, row-major, and the exploration
// generator is held by value, so a learner is two objects for any table
// shape. A row view (row) is a capacity-capped window of the slab for
// use where it is taken; it must not outlive the learner.
type Learner struct {
	cfg     Config
	q       []float64
	rng     stats.RNG
	updates uint64
}

// New returns a Learner for the given configuration.
func New(cfg Config) (*Learner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	q := make([]float64, cfg.States*cfg.Actions)
	for i := range q {
		q[i] = cfg.InitQ
	}
	return &Learner{cfg: cfg, q: q, rng: *stats.NewRNG(cfg.RandSeed)}, nil
}

// MustNew is New but panics on configuration error; for tests and
// examples with literal configs.
func MustNew(cfg Config) *Learner {
	l, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// Q returns the current estimate for (state, action).
func (l *Learner) Q(state, action int) float64 {
	return l.row(state)[action]
}

// row returns state's Q values, one per action.
func (l *Learner) row(state int) []float64 {
	a := l.cfg.Actions
	lo := state * a
	return l.q[lo : lo+a : lo+a]
}

// Updates returns the number of Update calls so far.
func (l *Learner) Updates() uint64 { return l.updates }

// BestAction returns the greedy action for state and its Q value.
// Ties break toward the lowest-numbered action, which for
// SmartOverclock means the lowest frequency — the safe direction.
func (l *Learner) BestAction(state int) (action int, q float64) {
	row := l.row(state)
	action, q = 0, row[0]
	for a := 1; a < len(row); a++ {
		if row[a] > q {
			action, q = a, row[a]
		}
	}
	return action, q
}

// SelectAction picks an action for state using ε-greedy exploration.
// The explored return reports whether the action came from the random
// branch rather than the learned policy.
func (l *Learner) SelectAction(state int) (action int, explored bool) {
	if l.rng.Bool(l.cfg.Epsilon) {
		return l.rng.Intn(l.cfg.Actions), true
	}
	a, _ := l.BestAction(state)
	return a, false
}

// Update applies one Q-learning step for the transition
// (state, action) → nextState with the observed reward.
func (l *Learner) Update(state, action int, reward float64, nextState int) {
	_, maxNext := l.BestAction(nextState)
	row := l.row(state)
	cur := row[action]
	row[action] = cur + l.cfg.Alpha*(reward+l.cfg.Gamma*maxNext-cur)
	l.updates++
}

// Reset reinitializes all Q values to InitQ, discarding learned state.
// The SmartOverclock agent resets after long safeguard episodes so that
// stale policy does not outlive a regime change.
func (l *Learner) Reset() {
	for i := range l.q {
		l.q[i] = l.cfg.InitQ
	}
	l.updates = 0
}

// Config returns the learner's configuration.
func (l *Learner) Config() Config { return l.cfg }
