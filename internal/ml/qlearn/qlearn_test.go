package qlearn

import (
	"testing"
	"testing/quick"

	"sol/internal/stats"
)

func validCfg() Config {
	return Config{States: 4, Actions: 3, Alpha: 0.3, Gamma: 0.9, Epsilon: 0.1, RandSeed: 1}
}

// TestConfigValidation pins New's rejection of every invalid Config
// field, with its exact error.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.States = 0 }, "qlearn: States = 0, must be positive"},
		{func(c *Config) { c.States = -3 }, "qlearn: States = -3, must be positive"},
		{func(c *Config) { c.Actions = 0 }, "qlearn: Actions = 0, must be positive"},
		{func(c *Config) { c.Actions = -1 }, "qlearn: Actions = -1, must be positive"},
		{func(c *Config) { c.Alpha = 0 }, "qlearn: Alpha = 0, must be in (0,1]"},
		{func(c *Config) { c.Alpha = -0.2 }, "qlearn: Alpha = -0.2, must be in (0,1]"},
		{func(c *Config) { c.Alpha = 1.5 }, "qlearn: Alpha = 1.5, must be in (0,1]"},
		{func(c *Config) { c.Gamma = 1 }, "qlearn: Gamma = 1, must be in [0,1)"},
		{func(c *Config) { c.Gamma = -0.1 }, "qlearn: Gamma = -0.1, must be in [0,1)"},
		{func(c *Config) { c.Epsilon = -0.1 }, "qlearn: Epsilon = -0.1, must be in [0,1]"},
		{func(c *Config) { c.Epsilon = 1.1 }, "qlearn: Epsilon = 1.1, must be in [0,1]"},
		// Fields are checked in declaration order.
		{func(c *Config) { c.Actions, c.Epsilon = 0, 2 }, "qlearn: Actions = 0, must be positive"},
	}
	for i, tc := range cases {
		cfg := validCfg()
		tc.mut(&cfg)
		l, err := New(cfg)
		if err == nil || err.Error() != tc.want || l != nil {
			t.Errorf("case %d: New(%+v) = %v, %v; want nil, %q", i, cfg, l, err, tc.want)
		}
	}
	if _, err := New(validCfg()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// rowLearner is the Q-learner as it was before its table became one
// slab: one slice per state and a generator behind a pointer. It is the
// reference TestQTableMatchesRows holds the flat layout to.
type rowLearner struct {
	cfg Config
	q   [][]float64
	rng *stats.RNG
}

func newRowLearner(cfg Config) *rowLearner {
	q := make([][]float64, cfg.States)
	for s := range q {
		q[s] = make([]float64, cfg.Actions)
		for a := range q[s] {
			q[s][a] = cfg.InitQ
		}
	}
	return &rowLearner{cfg: cfg, q: q, rng: stats.NewRNG(cfg.RandSeed)}
}

func (l *rowLearner) bestAction(state int) (int, float64) {
	row := l.q[state]
	action, q := 0, row[0]
	for a := 1; a < len(row); a++ {
		if row[a] > q {
			action, q = a, row[a]
		}
	}
	return action, q
}

func (l *rowLearner) selectAction(state int) (int, bool) {
	if l.rng.Bool(l.cfg.Epsilon) {
		return l.rng.Intn(l.cfg.Actions), true
	}
	a, _ := l.bestAction(state)
	return a, false
}

func (l *rowLearner) update(state, action int, reward float64, next int) {
	_, maxNext := l.bestAction(next)
	cur := l.q[state][action]
	l.q[state][action] = cur + l.cfg.Alpha*(reward+l.cfg.Gamma*maxNext-cur)
}

func (l *rowLearner) reset() {
	for s := range l.q {
		for a := range l.q[s] {
			l.q[s][a] = l.cfg.InitQ
		}
	}
}

// TestQTableMatchesRows pins the flat Q-table to the per-row layout it
// replaced: over a long seeded mix of SelectAction, Update, BestAction
// and Reset, the learner explores and chooses exactly as the reference
// does, and ends on exactly its Q values.
func TestQTableMatchesRows(t *testing.T) {
	for _, shape := range []struct{ states, actions int }{{10, 3}, {7, 64}, {1, 5}, {5, 1}} {
		cfg := Config{States: shape.states, Actions: shape.actions, Alpha: 0.4, Gamma: 0.3, Epsilon: 0.2, InitQ: 0.8, RandSeed: 9}
		flat, ref := MustNew(cfg), newRowLearner(cfg)
		env := stats.NewRNG(5)
		resets := 0
		for step := 0; step < 12000; step++ {
			s := env.Intn(cfg.States)
			switch op := env.Intn(1000); {
			case op < 450:
				a, e := flat.SelectAction(s)
				wa, we := ref.selectAction(s)
				if a != wa || e != we {
					t.Fatalf("%dx%d step %d: SelectAction(%d) = %d,%v; rows %d,%v", cfg.States, cfg.Actions, step, s, a, e, wa, we)
				}
				r, next := env.Float64()*2-1, env.Intn(cfg.States)
				flat.Update(s, a, r, next)
				ref.update(s, a, r, next)
			case op < 700:
				a, r, next := env.Intn(cfg.Actions), env.Float64(), env.Intn(cfg.States)
				flat.Update(s, a, r, next)
				ref.update(s, a, r, next)
			case op < 998:
				a, q := flat.BestAction(s)
				wa, wq := ref.bestAction(s)
				if a != wa || q != wq {
					t.Fatalf("%dx%d step %d: BestAction(%d) = %d,%v; rows %d,%v", cfg.States, cfg.Actions, step, s, a, q, wa, wq)
				}
			default:
				resets++
				flat.Reset()
				ref.reset()
			}
		}
		if resets == 0 {
			t.Fatalf("%dx%d: history never reset", cfg.States, cfg.Actions)
		}
		for s := range ref.q {
			for a, want := range ref.q[s] {
				if got := flat.Q(s, a); got != want {
					t.Fatalf("%dx%d: Q(%d,%d) = %v, rows %v", cfg.States, cfg.Actions, s, a, got, want)
				}
			}
		}
	}
}

// TestNewAllocs pins a learner at two objects — itself, holding its
// generator by value, and its Q-table slab — whatever its state count.
func TestNewAllocs(t *testing.T) {
	for _, states := range []int{2, 64} {
		cfg := validCfg()
		cfg.States = states
		if n := testing.AllocsPerRun(50, func() { _, _ = New(cfg) }); n != 2 {
			t.Errorf("New with %d states allocates %.0f objects, want 2", states, n)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestInitQ(t *testing.T) {
	cfg := validCfg()
	cfg.InitQ = 2.5
	l := MustNew(cfg)
	for s := 0; s < cfg.States; s++ {
		for a := 0; a < cfg.Actions; a++ {
			if l.Q(s, a) != 2.5 {
				t.Fatalf("Q(%d,%d) = %v, want 2.5", s, a, l.Q(s, a))
			}
		}
	}
}

func TestUpdateMovesTowardTarget(t *testing.T) {
	cfg := validCfg()
	cfg.Gamma = 0 // pure immediate reward
	l := MustNew(cfg)
	l.Update(0, 1, 10, 0)
	if got := l.Q(0, 1); got != 3 { // 0 + 0.3*(10-0)
		t.Fatalf("Q(0,1) after one update = %v, want 3", got)
	}
	l.Update(0, 1, 10, 0)
	if got := l.Q(0, 1); got != 3+0.3*(10-3) {
		t.Fatalf("Q(0,1) after two updates = %v", got)
	}
	if l.Updates() != 2 {
		t.Fatalf("Updates() = %d, want 2", l.Updates())
	}
}

func TestBestActionTieBreaksLow(t *testing.T) {
	l := MustNew(validCfg())
	a, q := l.BestAction(0)
	if a != 0 || q != 0 {
		t.Fatalf("BestAction on uniform Q = (%d,%v), want (0,0)", a, q)
	}
}

func TestGreedyConvergesToBestArm(t *testing.T) {
	cfg := validCfg()
	cfg.States = 1
	cfg.Actions = 3
	cfg.Epsilon = 0.1
	cfg.Gamma = 0
	l := MustNew(cfg)
	// Arm 2 pays 1.0, others pay 0.1.
	for i := 0; i < 2000; i++ {
		a, _ := l.SelectAction(0)
		r := 0.1
		if a == 2 {
			r = 1.0
		}
		l.Update(0, a, r, 0)
	}
	if best, _ := l.BestAction(0); best != 2 {
		t.Fatalf("greedy action = %d, want 2", best)
	}
}

func TestExplorationRate(t *testing.T) {
	cfg := validCfg()
	cfg.Epsilon = 0.1
	l := MustNew(cfg)
	explored := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if _, e := l.SelectAction(0); e {
			explored++
		}
	}
	frac := float64(explored) / n
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("exploration fraction = %v, want ~0.10", frac)
	}
}

func TestEpsilonZeroNeverExplores(t *testing.T) {
	cfg := validCfg()
	cfg.Epsilon = 0
	l := MustNew(cfg)
	for i := 0; i < 1000; i++ {
		if _, e := l.SelectAction(0); e {
			t.Fatal("ε=0 learner explored")
		}
	}
}

func TestReset(t *testing.T) {
	cfg := validCfg()
	cfg.InitQ = 1
	l := MustNew(cfg)
	l.Update(0, 0, 100, 1)
	l.Reset()
	if l.Q(0, 0) != 1 || l.Updates() != 0 {
		t.Fatal("Reset did not restore initial state")
	}
}

func TestDiscountedPropagation(t *testing.T) {
	// Two-state chain: state 0 --action 0--> state 1 (reward 0),
	// state 1 --action 0--> state 1 (reward 1). Q(0,0) should approach
	// γ/(1−γ)·... — at minimum it must become positive via bootstrap.
	cfg := validCfg()
	cfg.States = 2
	cfg.Actions = 1
	cfg.Epsilon = 0
	l := MustNew(cfg)
	for i := 0; i < 500; i++ {
		l.Update(1, 0, 1, 1)
		l.Update(0, 0, 0, 1)
	}
	if l.Q(0, 0) <= 0 {
		t.Fatalf("Q(0,0) = %v, want > 0 via bootstrapping", l.Q(0, 0))
	}
	if l.Q(1, 0) <= l.Q(0, 0) {
		t.Fatalf("Q(1,0)=%v should exceed Q(0,0)=%v", l.Q(1, 0), l.Q(0, 0))
	}
}

// Property: with rewards bounded in [lo, hi] and Q initialized inside
// the bound, Q values remain within [lo/(1−γ), hi/(1−γ)].
func TestQBoundedProperty(t *testing.T) {
	prop := func(seed uint64, steps uint8) bool {
		cfg := Config{States: 3, Actions: 2, Alpha: 0.5, Gamma: 0.5, Epsilon: 0.3, RandSeed: seed}
		l := MustNew(cfg)
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % n
		}
		for i := 0; i < int(steps)+50; i++ {
			s, a := next(3), next(2)
			r := float64(next(3)) - 1 // reward in {-1,0,1}
			l.Update(s, a, r, next(3))
			_ = s
			_ = a
		}
		bound := 1.0 / (1 - cfg.Gamma) // = 2
		for s := 0; s < 3; s++ {
			for a := 0; a < 2; a++ {
				q := l.Q(s, a)
				if q < -bound-1e-9 || q > bound+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectActionInRange(t *testing.T) {
	l := MustNew(validCfg())
	for i := 0; i < 1000; i++ {
		a, _ := l.SelectAction(i % 4)
		if a < 0 || a >= 3 {
			t.Fatalf("SelectAction returned %d", a)
		}
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := validCfg()
	if got := MustNew(cfg).Config(); got != cfg {
		t.Fatalf("Config() = %+v, want %+v", got, cfg)
	}
}
