package linear

import (
	"math"
	"testing"
	"testing/quick"

	"sol/internal/stats"
)

func TestNewRegressorValidation(t *testing.T) {
	if _, err := NewRegressor(0, 0.1); err == nil {
		t.Fatal("dims=0 accepted")
	}
	if _, err := NewRegressor(3, 0); err == nil {
		t.Fatal("lr=0 accepted")
	}
	if _, err := NewRegressor(3, 0.1); err != nil {
		t.Fatalf("valid regressor rejected: %v", err)
	}
}

func TestRegressorLearnsLine(t *testing.T) {
	r, _ := NewRegressor(2, 0.05)
	rng := stats.NewRNG(1)
	// y = 3x0 - 2x1 + 1
	for i := 0; i < 5000; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		r.Update(x, 3*x[0]-2*x[1]+1)
	}
	for i := 0; i < 20; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		want := 3*x[0] - 2*x[1] + 1
		if got := r.Predict(x); math.Abs(got-want) > 0.1 {
			t.Fatalf("Predict(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestRegressorPredictDimMismatchPanics(t *testing.T) {
	r, _ := NewRegressor(2, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	r.Predict([]float64{1})
}

func TestRegressorUpdateReturnsPreUpdatePrediction(t *testing.T) {
	r, _ := NewRegressor(1, 0.1)
	if got := r.Update([]float64{1}, 5); got != 0 {
		t.Fatalf("first Update returned %v, want 0 (zero model)", got)
	}
}

func TestRegressorStepClipping(t *testing.T) {
	r, _ := NewRegressor(1, 1)
	r.Update([]float64{1}, 1e12) // would be a huge step without clipping
	if math.Abs(r.Bias()) > 100 {
		t.Fatalf("bias = %v after outlier, clipping failed", r.Bias())
	}
}

func TestRegressorReset(t *testing.T) {
	r, _ := NewRegressor(2, 0.1)
	r.Update([]float64{1, 1}, 3)
	r.Reset()
	if r.Bias() != 0 || r.Weights()[0] != 0 || r.Weights()[1] != 0 {
		t.Fatal("Reset left non-zero weights")
	}
}

func TestRegressorWeightsIsCopy(t *testing.T) {
	r, _ := NewRegressor(1, 0.1)
	r.Update([]float64{1}, 1)
	w := r.Weights()
	w[0] = 999
	if r.Weights()[0] == 999 {
		t.Fatal("Weights() exposed internal slice")
	}
}

// TestCostSensitiveValidation pins NewCostSensitive's rejections: the
// class count is checked first, then the regressor shape, with exactly
// the errors NewRegressor gives for the same dims and learning rate.
func TestCostSensitiveValidation(t *testing.T) {
	cases := []struct {
		classes, dims int
		lr            float64
		want          string
	}{
		{1, 3, 0.1, "linear: classes = 1, must be at least 2"},
		{0, 3, 0.1, "linear: classes = 0, must be at least 2"},
		{-2, 3, 0.1, "linear: classes = -2, must be at least 2"},
		{1, 0, 0, "linear: classes = 1, must be at least 2"},
		{3, 0, 0.1, "linear: dims = 0, must be positive"},
		{3, -4, 0.1, "linear: dims = -4, must be positive"},
		{3, 0, 0, "linear: dims = 0, must be positive"},
		{3, 2, 0, "linear: learning rate = 0, must be positive"},
		{3, 2, -0.5, "linear: learning rate = -0.5, must be positive"},
	}
	for _, tc := range cases {
		cs, err := NewCostSensitive(tc.classes, tc.dims, tc.lr)
		if err == nil || err.Error() != tc.want || cs != nil {
			t.Errorf("NewCostSensitive(%d, %d, %v) = %v, %v; want nil, %q", tc.classes, tc.dims, tc.lr, cs, err, tc.want)
		}
		if tc.classes > 1 {
			if _, rerr := NewRegressor(tc.dims, tc.lr); rerr == nil || rerr.Error() != tc.want {
				t.Errorf("NewRegressor(%d, %v) error %v, NewCostSensitive's %q", tc.dims, tc.lr, rerr, tc.want)
			}
		}
	}
	if _, err := NewCostSensitive(2, 1, 0.1); err != nil {
		t.Fatalf("valid classifier rejected: %v", err)
	}
}

// TestCostSensitiveMatchesIndependentRegressors pins the flat classifier
// to the layout it replaced, one standalone regressor per class: over a
// long seeded mix of Update, Predict and Reset, every predicted cost,
// every chosen class, and every final weight and bias are identical.
// Each class's weights are a capacity-capped window of its own row.
func TestCostSensitiveMatchesIndependentRegressors(t *testing.T) {
	const classes, dims, steps, lr = 9, 6, 12000, 0.05
	solo := make([]*Regressor, classes)
	for c := range solo {
		solo[c], _ = NewRegressor(dims, lr)
	}
	cs := MustNewCostSensitive(classes, dims, lr)
	for c := range cs.regs {
		if w := cs.regs[c].w; len(w) != dims || cap(w) != dims {
			t.Fatalf("class %d weights have len %d cap %d, want %d/%d", c, len(w), cap(w), dims, dims)
		}
	}
	env := stats.NewRNG(11)
	x := make([]float64, dims)
	costs := make([]float64, classes)
	resets := 0
	for step := 0; step < steps; step++ {
		for i := range x {
			x[i] = 4*env.Float64() - 1
		}
		switch op := env.Intn(1000); {
		case op < 600:
			FillAsymmetricCosts(costs, env.Intn(classes), 10, 1)
			cs.Update(x, costs)
			for c, r := range solo {
				r.Update(x, costs[c])
			}
		case op < 997:
			got := cs.PredictCosts(x)
			best, bestCost := 0, solo[0].Predict(x)
			for c, r := range solo {
				want := r.Predict(x)
				if got[c] != want {
					t.Fatalf("step %d class %d: classifier cost %v, independent regressor %v", step, c, got[c], want)
				}
				if c > 0 && want <= bestCost {
					best, bestCost = c, want
				}
			}
			if p := cs.Predict(x); p != best {
				t.Fatalf("step %d: classifier predicts %d, independent regressors %d", step, p, best)
			}
		default:
			resets++
			cs.Reset()
			for _, r := range solo {
				r.Reset()
			}
		}
	}
	if resets == 0 {
		t.Fatal("history never reset")
	}
	for c, r := range solo {
		if got, want := cs.regs[c].Bias(), r.Bias(); got != want {
			t.Fatalf("class %d: bias %v, independent %v", c, got, want)
		}
		want := r.Weights()
		for i, got := range cs.regs[c].Weights() {
			if got != want[i] {
				t.Fatalf("class %d weight %d: %v, independent %v", c, i, got, want[i])
			}
		}
	}
}

// TestNewCostSensitiveAllocs pins the classifier at three objects —
// header, regressor slice, weight slab — whatever its class count, and
// at the two slices when Init fills a classifier its owner holds.
func TestNewCostSensitiveAllocs(t *testing.T) {
	var cs *CostSensitive
	for _, classes := range []int{2, 64} {
		if n := testing.AllocsPerRun(50, func() { cs, _ = NewCostSensitive(classes, 6, 0.05) }); n != 3 {
			t.Errorf("NewCostSensitive with %d classes allocates %.0f objects, want 3", classes, n)
		}
		if n := testing.AllocsPerRun(50, func() { _ = cs.Init(classes, 6, 0.05) }); n != 2 {
			t.Errorf("Init with %d classes allocates %.0f objects, want 2", classes, n)
		}
	}
}

func TestMustNewCostSensitivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNewCostSensitive(0, 0, 0)
}

func TestCostSensitiveLearnsSeparableClasses(t *testing.T) {
	// Class = 0 if x0 < 0.5 else 1. Costs are 0/1.
	cs := MustNewCostSensitive(2, 1, 0.1)
	rng := stats.NewRNG(2)
	for i := 0; i < 5000; i++ {
		x := []float64{rng.Float64()}
		label := 0
		if x[0] >= 0.5 {
			label = 1
		}
		cs.Update(x, AsymmetricCosts(2, label, 1, 1))
	}
	correct := 0
	for i := 0; i < 1000; i++ {
		x := []float64{rng.Float64()}
		label := 0
		if x[0] >= 0.5 {
			label = 1
		}
		if cs.Predict(x) == label {
			correct++
		}
	}
	if correct < 900 {
		t.Fatalf("accuracy %d/1000 on separable problem", correct)
	}
}

func TestCostSensitiveAsymmetryBiasesHigh(t *testing.T) {
	// Labels are uniformly 2 or 3 with identical features; with heavy
	// under-prediction cost the classifier should settle on the higher
	// class (predict 3).
	cs := MustNewCostSensitive(5, 1, 0.05)
	rng := stats.NewRNG(3)
	for i := 0; i < 4000; i++ {
		label := 2 + rng.Intn(2)
		cs.Update([]float64{1}, AsymmetricCosts(5, label, 10, 1))
	}
	if got := cs.Predict([]float64{1}); got < 3 {
		t.Fatalf("asymmetric classifier predicts %d, want >= 3", got)
	}
}

func TestCostSensitiveTieBreaksHigh(t *testing.T) {
	cs := MustNewCostSensitive(4, 1, 0.1)
	// Zero model: all predicted costs equal; prediction must be the
	// highest class (conservative for core demand).
	if got := cs.Predict([]float64{1}); got != 3 {
		t.Fatalf("tie-break prediction = %d, want 3", got)
	}
}

func TestCostSensitiveUpdateLenPanics(t *testing.T) {
	cs := MustNewCostSensitive(3, 1, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong cost vector length")
		}
	}()
	cs.Update([]float64{1}, []float64{0, 1})
}

func TestCostSensitiveReset(t *testing.T) {
	cs := MustNewCostSensitive(3, 1, 0.1)
	cs.Update([]float64{1}, []float64{0, 1, 2})
	cs.Reset()
	if cs.Updates() != 0 {
		t.Fatal("Updates not reset")
	}
	costs := cs.PredictCosts([]float64{1})
	for _, c := range costs {
		if c != 0 {
			t.Fatal("Reset left non-zero predictions")
		}
	}
}

func TestCostSensitiveAccessors(t *testing.T) {
	cs := MustNewCostSensitive(4, 7, 0.1)
	if cs.Classes() != 4 || cs.Dims() != 7 {
		t.Fatalf("Classes/Dims = %d/%d", cs.Classes(), cs.Dims())
	}
}

func TestAsymmetricCosts(t *testing.T) {
	costs := AsymmetricCosts(5, 2, 10, 1)
	want := []float64{20, 10, 0, 1, 2}
	for i := range want {
		if costs[i] != want[i] {
			t.Fatalf("AsymmetricCosts = %v, want %v", costs, want)
		}
	}
	// Refilling a used buffer for another label leaves nothing behind.
	FillAsymmetricCosts(costs, 4, 10, 1)
	want = []float64{40, 30, 20, 10, 0}
	for i := range want {
		if costs[i] != want[i] {
			t.Fatalf("FillAsymmetricCosts over a used buffer = %v, want %v", costs, want)
		}
	}
}

// Property: the true label always has zero cost and all other classes
// have positive cost (for positive penalties).
func TestAsymmetricCostsProperty(t *testing.T) {
	prop := func(classes8, label8 uint8) bool {
		classes := int(classes8%10) + 2
		label := int(label8) % classes
		costs := AsymmetricCosts(classes, label, 5, 0.5)
		for c, cost := range costs {
			if c == label && cost != 0 {
				return false
			}
			if c != label && cost <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Predict always returns a valid class index.
func TestPredictRangeProperty(t *testing.T) {
	cs := MustNewCostSensitive(6, 3, 0.1)
	prop := func(a, b, c float64, label8 uint8) bool {
		x := []float64{sanitize(a), sanitize(b), sanitize(c)}
		cs.Update(x, AsymmetricCosts(6, int(label8)%6, 4, 1))
		p := cs.Predict(x)
		return p >= 0 && p < 6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 10)
}
