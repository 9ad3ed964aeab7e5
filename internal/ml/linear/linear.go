// Package linear implements online linear learners: a plain SGD
// regressor and a cost-sensitive one-vs-all multiclass classifier in
// the style of Vowpal Wabbit's csoaa reduction. The SmartHarvest agent
// (§5.2 of the SOL paper) uses the cost-sensitive classifier to predict
// the maximum number of CPU cores the primary VMs will need in the next
// 25 ms, with asymmetric costs that punish under-prediction (which
// hurts customer QoS) far more than over-prediction (which merely
// forgoes harvesting).
package linear

import "fmt"

// Regressor is an online least-squares linear model trained with SGD.
// It maintains one weight per feature plus a bias term.
type Regressor struct {
	w    []float64
	bias float64
	lr   float64
}

// NewRegressor returns a regressor over dims features with learning
// rate lr.
func NewRegressor(dims int, lr float64) (*Regressor, error) {
	if err := validate(dims, lr); err != nil {
		return nil, err
	}
	return &Regressor{w: make([]float64, dims), lr: lr}, nil
}

// validate checks a regressor's shape; NewRegressor and
// NewCostSensitive reject the same inputs with the same errors.
func validate(dims int, lr float64) error {
	if dims <= 0 {
		return fmt.Errorf("linear: dims = %d, must be positive", dims)
	}
	if lr <= 0 {
		return fmt.Errorf("linear: learning rate = %v, must be positive", lr)
	}
	return nil
}

// Dims returns the feature dimensionality.
func (r *Regressor) Dims() int { return len(r.w) }

// Predict returns the model output for x. It panics if len(x) does not
// match the model dimensionality (a programming error, not a data
// error — data errors are the job of SOL's ValidateData).
func (r *Regressor) Predict(x []float64) float64 {
	if len(x) != len(r.w) {
		panic(fmt.Sprintf("linear: predict with %d features, model has %d", len(x), len(r.w)))
	}
	y := r.bias
	for i, xi := range x {
		y += r.w[i] * xi
	}
	return y
}

// Update performs one SGD step on the squared loss (pred − target)².
// It returns the pre-update prediction.
func (r *Regressor) Update(x []float64, target float64) float64 {
	pred := r.Predict(x)
	grad := pred - target
	step := r.lr * grad
	// Clip the step to keep single outliers from destabilizing the
	// model; online learning on node telemetry sees heavy tails.
	const maxStep = 10
	if step > maxStep {
		step = maxStep
	} else if step < -maxStep {
		step = -maxStep
	}
	r.bias -= step
	for i, xi := range x {
		r.w[i] -= step * xi
	}
	return pred
}

// Weights returns a copy of the weight vector (without bias).
func (r *Regressor) Weights() []float64 {
	out := make([]float64, len(r.w))
	copy(out, r.w)
	return out
}

// Bias returns the bias term.
func (r *Regressor) Bias() float64 { return r.bias }

// Reset zeroes the model.
func (r *Regressor) Reset() {
	r.bias = 0
	for i := range r.w {
		r.w[i] = 0
	}
}

// CostSensitive is a one-vs-all cost-sensitive multiclass classifier:
// one regressor per class predicts the cost of choosing that class, and
// prediction selects the class with the lowest predicted cost. This is
// the csoaa reduction used by Vowpal Wabbit, which the paper's
// SmartHarvest agent uses.
//
// The classifier is three objects for any class count: its header, the
// regressors held by value in one slice, and one weight slab that every
// regressor's weights are a window of (class c owns w[c*dims:(c+1)*dims],
// capacity-capped so no window can grow into its neighbour's). The
// classifier owns the slab; a regressor in regs must not outlive it.
type CostSensitive struct {
	regs    []Regressor
	updates uint64
}

// NewCostSensitive returns a classifier over classes classes and dims
// features, trained with learning rate lr.
func NewCostSensitive(classes, dims int, lr float64) (*CostSensitive, error) {
	if classes <= 1 {
		return nil, fmt.Errorf("linear: classes = %d, must be at least 2", classes)
	}
	if err := validate(dims, lr); err != nil {
		return nil, err
	}
	regs := make([]Regressor, classes)
	w := make([]float64, classes*dims)
	for c := range regs {
		regs[c] = Regressor{w: w[c*dims : (c+1)*dims : (c+1)*dims], lr: lr}
	}
	return &CostSensitive{regs: regs}, nil
}

// MustNewCostSensitive is NewCostSensitive but panics on error.
func MustNewCostSensitive(classes, dims int, lr float64) *CostSensitive {
	cs, err := NewCostSensitive(classes, dims, lr)
	if err != nil {
		panic(err)
	}
	return cs
}

// Classes returns the number of classes.
func (cs *CostSensitive) Classes() int { return len(cs.regs) }

// Dims returns the feature dimensionality.
func (cs *CostSensitive) Dims() int { return cs.regs[0].Dims() }

// Updates returns the number of Update calls.
func (cs *CostSensitive) Updates() uint64 { return cs.updates }

// Predict returns the class with the lowest predicted cost for x.
// Ties break toward the higher class index: for SmartHarvest, class =
// predicted core demand, so breaking high is the conservative (safe)
// direction.
func (cs *CostSensitive) Predict(x []float64) int {
	best, bestCost := 0, cs.regs[0].Predict(x)
	for c := 1; c < len(cs.regs); c++ {
		if cost := cs.regs[c].Predict(x); cost <= bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

// PredictCosts returns the predicted cost for every class.
func (cs *CostSensitive) PredictCosts(x []float64) []float64 {
	out := make([]float64, len(cs.regs))
	for c := range cs.regs {
		out[c] = cs.regs[c].Predict(x)
	}
	return out
}

// Update trains the model on one example: for each class c, the
// observed cost of having chosen c is costs[c]. It panics if len(costs)
// does not equal the number of classes.
func (cs *CostSensitive) Update(x []float64, costs []float64) {
	if len(costs) != len(cs.regs) {
		panic(fmt.Sprintf("linear: %d costs for %d classes", len(costs), len(cs.regs)))
	}
	for c := range cs.regs {
		cs.regs[c].Update(x, costs[c])
	}
	cs.updates++
}

// Reset zeroes all per-class regressors.
func (cs *CostSensitive) Reset() {
	for c := range cs.regs {
		cs.regs[c].Reset()
	}
	cs.updates = 0
}

// AsymmetricCosts builds a cost vector for a true class label under an
// asymmetric regime: choosing class c when the truth is label costs
//
//	under · (label − c)  if c < label  (under-prediction)
//	over  · (c − label)  if c > label  (over-prediction)
//	0                    if c == label
//
// SmartHarvest uses under ≫ over so that the classifier learns to err
// on the side of leaving cores with the primary VM.
func AsymmetricCosts(classes, label int, under, over float64) []float64 {
	costs := make([]float64, classes)
	FillAsymmetricCosts(costs, label, under, over)
	return costs
}

// FillAsymmetricCosts is AsymmetricCosts over len(costs) classes into
// a caller-owned buffer, for a learner that builds one cost vector per
// epoch.
func FillAsymmetricCosts(costs []float64, label int, under, over float64) {
	for c := range costs {
		switch {
		case c < label:
			costs[c] = under * float64(label-c)
		case c > label:
			costs[c] = over * float64(c-label)
		default:
			costs[c] = 0
		}
	}
}
