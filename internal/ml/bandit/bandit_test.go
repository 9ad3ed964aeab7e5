package bandit

import (
	"testing"
	"testing/quick"

	"sol/internal/stats"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, stats.NewRNG(1)); err == nil {
		t.Fatal("arms=0 accepted")
	}
	if _, err := New(3, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
	if _, err := New(3, stats.NewRNG(1)); err != nil {
		t.Fatalf("valid bandit rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNew(0, nil)
}

func TestUniformPrior(t *testing.T) {
	b := MustNew(4, stats.NewRNG(1))
	for i := 0; i < 4; i++ {
		if b.Mean(i) != 0.5 {
			t.Fatalf("arm %d prior mean = %v, want 0.5", i, b.Mean(i))
		}
	}
}

func TestConvergesToBestArm(t *testing.T) {
	rng := stats.NewRNG(7)
	b := MustNew(3, rng.Split())
	// Arm payoffs: 0.2, 0.5, 0.9.
	pay := []float64{0.2, 0.5, 0.9}
	var plays [3]int
	for i := 0; i < 3000; i++ {
		a := b.Select()
		plays[a]++
		b.Reward(a, rng.Bool(pay[a]))
	}
	if b.BestMean() != 2 {
		t.Fatalf("BestMean = %d, want 2", b.BestMean())
	}
	// The best arm should dominate the plays after convergence.
	if plays[2] < plays[0]+plays[1] {
		t.Fatalf("best arm played %d times vs %d+%d for the rest",
			plays[2], plays[0], plays[1])
	}
}

func TestRewardUpdatesPosterior(t *testing.T) {
	b := MustNew(2, stats.NewRNG(1))
	b.Reward(0, true)
	b.Reward(0, true)
	b.Reward(0, false)
	p := b.Posterior(0)
	if p.Alpha != 3 || p.Beta != 2 {
		t.Fatalf("posterior = Beta(%v,%v), want Beta(3,2)", p.Alpha, p.Beta)
	}
	if got := b.Mean(0); got != 0.6 {
		t.Fatalf("mean = %v, want 0.6", got)
	}
}

func TestReset(t *testing.T) {
	b := MustNew(2, stats.NewRNG(1))
	b.Select()
	b.Reward(0, true)
	b.Reward(1, false)
	b.Reset()
	want := stats.Beta{Alpha: 1, Beta: 1}
	if b.Posterior(0) != want || b.Posterior(1) != want {
		t.Fatal("Reset did not restore prior")
	}
}

func TestDecayMovesTowardPrior(t *testing.T) {
	b := MustNew(1, stats.NewRNG(1))
	for i := 0; i < 100; i++ {
		b.Reward(0, true)
	}
	before := b.Posterior(0)
	b.Decay(0.5)
	after := b.Posterior(0)
	if after.Alpha >= before.Alpha {
		t.Fatalf("Decay did not shrink Alpha: %v -> %v", before.Alpha, after.Alpha)
	}
	if after.Alpha < 1 || after.Beta < 1 {
		t.Fatalf("Decay went below the prior: Beta(%v,%v)", after.Alpha, after.Beta)
	}
}

func TestDecayPanics(t *testing.T) {
	b := MustNew(1, stats.NewRNG(1))
	for _, g := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Decay(%v) did not panic", g)
				}
			}()
			b.Decay(g)
		}()
	}
}

func TestDecayOneIsIdentity(t *testing.T) {
	b := MustNew(1, stats.NewRNG(1))
	b.Reward(0, true)
	before := b.Posterior(0)
	b.Decay(1)
	if b.Posterior(0) != before {
		t.Fatal("Decay(1) changed the posterior")
	}
}

// Property: Select always returns a valid arm, and selecting alone —
// no reward, no decay — leaves every posterior where it was.
func TestSelectAccountingProperty(t *testing.T) {
	prop := func(seed uint64, n8 uint8) bool {
		b := MustNew(5, stats.NewRNG(seed))
		b.Reward(int(seed%5), seed%2 == 0)
		var before [5]stats.Beta
		for i := range before {
			before[i] = b.Posterior(i)
		}
		n := int(n8)%100 + 1
		for i := 0; i < n; i++ {
			a := b.Select()
			if a < 0 || a >= 5 {
				return false
			}
		}
		for i := range before {
			if b.Posterior(i) != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: posterior counts never drop below the Beta(1,1) prior under
// any sequence of rewards and decays.
func TestPosteriorFloorProperty(t *testing.T) {
	prop := func(seed uint64, ops []bool) bool {
		rng := stats.NewRNG(seed)
		b := MustNew(2, rng.Split())
		for _, success := range ops {
			b.Reward(rng.Intn(2), success)
			if rng.Bool(0.3) {
				b.Decay(0.9)
			}
		}
		for i := 0; i < 2; i++ {
			p := b.Posterior(i)
			if p.Alpha < 1 || p.Beta < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewBankValidation(t *testing.T) {
	if _, err := NewBank(0, 3, stats.NewRNG(1)); err == nil {
		t.Fatal("bandits=0 accepted")
	}
	if _, err := NewBank(4, 0, stats.NewRNG(1)); err == nil {
		t.Fatal("arms=0 accepted")
	}
	if _, err := NewBank(4, 3, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

// TestBankMatchesIndependentThompsons pins the bank to the layout it
// replaced: seeded from the same root, bandit r of a bank plays, over a
// long mixed Select/Reward/Decay history, exactly the arms — and ends on
// exactly the posteriors — of the r-th bandit built on its own with
// New(arms, root.Split()). Regions are stepped interleaved, so a draw
// leaking from one region's generator into another's would show.
func TestBankMatchesIndependentThompsons(t *testing.T) {
	const regions, arms, steps = 16, 6, 12000
	rootA, rootB := stats.NewRNG(42), stats.NewRNG(42)
	solo := make([]*Thompson, regions)
	for r := range solo {
		solo[r] = MustNew(arms, rootA.Split())
	}
	bank, err := NewBank(regions, arms, rootB)
	if err != nil {
		t.Fatal(err)
	}
	if rootA.Uint64() != rootB.Uint64() {
		t.Fatal("NewBank drew from the root a different number of times than per-bandit Split")
	}
	env := stats.NewRNG(7)
	for step := 0; step < steps; step++ {
		for r := 0; r < regions; r++ {
			view := bank.At(r)
			if view.Arms() != arms {
				t.Fatalf("region %d view has %d arms, want %d", r, view.Arms(), arms)
			}
			switch op := env.Intn(10); {
			case op < 6:
				a, b := solo[r].Select(), view.Select()
				if a != b {
					t.Fatalf("step %d region %d: bank selected arm %d, independent bandit %d", step, r, b, a)
				}
				ok := env.Bool(0.2 + 0.1*float64(a))
				solo[r].Reward(a, ok)
				view.Reward(a, ok)
			case op < 9:
				arm, ok := env.Intn(arms), env.Bool(0.5)
				solo[r].Reward(arm, ok)
				view.Reward(arm, ok)
			default:
				solo[r].Decay(0.98)
				view.Decay(0.98)
			}
		}
	}
	for r := 0; r < regions; r++ {
		for a := 0; a < arms; a++ {
			if got, want := bank.At(r).Posterior(a), solo[r].Posterior(a); got != want {
				t.Fatalf("region %d arm %d: bank posterior %+v, independent %+v", r, a, got, want)
			}
		}
		if got, want := bank.At(r).BestMean(), solo[r].BestMean(); got != want {
			t.Fatalf("region %d: bank BestMean %d, independent %d", r, got, want)
		}
	}
	// Reset through a view touches that region only.
	bank.At(3).Reset()
	if bank.At(3).Mean(0) != 0.5 {
		t.Fatal("Reset through a view did not restore the prior")
	}
	if bank.At(2).Posterior(0) != solo[2].Posterior(0) || bank.At(4).Posterior(0) != solo[4].Posterior(0) {
		t.Fatal("Reset through a view reached a neighbouring region")
	}
}

// TestBankAllocs pins the build at the bank header and its two slabs,
// and every per-region operation through a view at zero.
func TestBankAllocs(t *testing.T) {
	rng := stats.NewRNG(1)
	var bank *Bank
	if n := testing.AllocsPerRun(50, func() { bank, _ = NewBank(128, 6, rng) }); n != 3 {
		t.Fatalf("NewBank allocates %.0f objects, want 3", n)
	}
	if n := testing.AllocsPerRun(50, func() { _ = bank.Init(128, 6, rng) }); n != 2 {
		t.Fatalf("Bank.Init allocates %.0f objects, want 2: the two slabs", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		for r := 0; r < 128; r++ {
			b := bank.At(r)
			b.Reward(b.Select(), r%2 == 0)
			b.Decay(0.98)
		}
	}); n != 0 {
		t.Fatalf("a pass over the bank's views allocates %.0f objects, want 0", n)
	}
}
