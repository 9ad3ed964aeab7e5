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

func TestCostSensitiveValidation(t *testing.T) {
	if _, err := NewCostSensitive(1, 3, 0.1); err == nil {
		t.Fatal("classes=1 accepted")
	}
	if _, err := NewCostSensitive(3, 0, 0.1); err == nil {
		t.Fatal("dims=0 accepted")
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
