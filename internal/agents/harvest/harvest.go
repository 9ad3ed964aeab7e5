// Package harvest implements SmartHarvest (§5.2 of the SOL paper): an
// agent that opportunistically harvests CPU cores that a primary VM has
// been allocated but is not using, loans them to an elastic best-effort
// VM, and returns them the instant the primary VM's demand rises.
//
// The model samples the primary VM's CPU usage from the hypervisor
// every 50 µs, computes distributional features over each 25 ms
// learning epoch, and uses a cost-sensitive classifier (in the style of
// VowpalWabbit's csoaa) to predict the maximum number of cores the
// primary VM will need in the next 25 ms. Under-prediction is costed
// far more heavily than over-prediction because it starves the customer
// workload.
//
// Safeguards:
//
//   - Data validation: usage samples taken while the primary VM is
//     using every core it has are discarded — under full utilization
//     the true demand is censored, and learning from such samples
//     biases the model toward systematic under-prediction (Figure 6,
//     left).
//   - Model assessment: the fraction of recent epochs whose model
//     prediction fell below the demand that materialized — predictions
//     that would leave the primary VM out of idle cores. When it is
//     high the model's predictions are intercepted and conservative
//     defaults are used (Figure 6, middle).
//   - Delayed predictions: predictions expire after 100 ms (4 epochs);
//     without a fresh prediction the actuator returns all cores
//     (Figure 6, right).
//   - Actuator safeguard: the P99 of the hypervisor's vCPU wait-time
//     counter; when customer vCPUs wait too long for physical cores,
//     harvesting is disabled entirely until the pressure clears.
package harvest

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sol/internal/core"
	"sol/internal/ml/linear"
	"sol/internal/node"
	"sol/internal/stats"
)

// Sample is one 50 µs usage reading (the Model's data type D).
type Sample struct {
	// Util is the primary VM's CPU usage in cores.
	Util float64
	// Granted is the cores the VM had available when sampled.
	Granted int
	// Unmet is unmet demand in cores (demand the VM could not run).
	Unmet float64
}

// Config tunes the agent.
type Config struct {
	// PrimaryVM is the customer VM to harvest from.
	PrimaryVM string
	// ElasticVM receives harvested cores; empty disables the loan
	// bookkeeping (cores are still released by the primary grant).
	ElasticVM string
	// UnderCost and OverCost weight the classifier's asymmetric costs.
	UnderCost, OverCost float64
	// LearningRate for the online classifier.
	LearningRate float64
	// SafetyBuffer is added to the predicted core need before granting.
	SafetyBuffer int
	// UnderPredWindow is how many recent epochs the model assessment
	// considers.
	UnderPredWindow int
	// UnderPredFailAt is the under-prediction fraction at which the
	// model fails assessment; UnderPredRecoverAt is the (lower)
	// fraction at which a failing model is trusted again. The gap is
	// hysteresis: without it the assessment flaps, because intercepted
	// defaults immediately hide the symptom they detected.
	UnderPredFailAt, UnderPredRecoverAt float64
	// WaitP99ThresholdMs is the actuator safeguard's trigger: P99 of
	// per-interval vCPU wait, in milliseconds.
	WaitP99ThresholdMs float64
	// WaitWindow is how many assessment intervals the safeguard keeps.
	WaitWindow int
	// Seed for deterministic behaviour.
	Seed uint64
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig(primary, elastic string) Config {
	return Config{
		PrimaryVM:          primary,
		ElasticVM:          elastic,
		UnderCost:          8,
		OverCost:           1,
		LearningRate:       0.05,
		SafetyBuffer:       0,
		UnderPredWindow:    40, // 1 s of 25 ms epochs
		UnderPredFailAt:    0.25,
		UnderPredRecoverAt: 0.10,
		WaitP99ThresholdMs: 50,
		WaitWindow:         40, // 4 s of 100 ms assessments
		Seed:               1,
	}
}

// Schedule returns the SOL schedule for SmartHarvest: 50 µs usage
// sampling, 500 samples per 25 ms epoch, a 100 ms actuation deadline
// (4 epochs), and 100 ms actuator assessment.
func Schedule() core.Schedule {
	return core.Schedule{
		DataPerEpoch:           500,
		DataCollectInterval:    50 * time.Microsecond,
		MaxEpochTime:           35 * time.Millisecond,
		AssessModelEvery:       1,
		MaxActuationDelay:      100 * time.Millisecond,
		AssessActuatorInterval: 100 * time.Millisecond,
		PredictionTTL:          100 * time.Millisecond,
	}
}

const featureDims = 6

// tailPercentile is the usage percentile among the epoch's features.
const tailPercentile = 95

// ValidateData's verdicts. The runtime counts rejections and drops the
// error, and the censoring check alone rejects more than one sample in
// ten, so they are preallocated sentinels rather than formatted values.
var (
	// ErrUsageRange rejects a usage reading outside [0, allocated cores].
	ErrUsageRange = errors.New("harvest: usage outside [0, allocated cores]")
	// ErrCensored rejects a sample taken while the primary VM used every
	// core it was granted.
	ErrCensored = errors.New("harvest: sample censored at full utilization")
	// ErrFullAllocation rejects a sample at the VM's whole allocation.
	ErrFullAllocation = errors.New("harvest: sample at full allocation")

	errNoFeatures = errors.New("harvest: no features yet")
)

// Model is the learning half of SmartHarvest. The prediction type is
// the number of cores the primary VM will need in the next epoch.
type Model struct {
	vm  *node.VM
	cfg Config
	cls linear.CostSensitive

	cores int
	// samples holds the utils committed since the last UpdateModel. It
	// is sized once, to the schedule's DataPerEpoch, and regrows only
	// when short-circuited epochs carry their samples into the next
	// update (core.Model.UpdateModel).
	samples []float64
	// feats is the last completed epoch's feature vector: Predict reads
	// it, and the next UpdateModel labels it with that epoch's observed
	// maximum before overwriting it.
	feats        [featureDims]float64
	haveFeatures bool
	// scratch and costs are UpdateModel's scratch: the top of the
	// samples' order that the p95 feature selects from (sized with
	// samples, for a DataPerEpoch epoch), and the classifier's cost
	// vector.
	scratch []float64
	costs   []float64

	// underPreds is a ring of per-epoch 0/1 indicators: did the model's
	// prediction for the epoch fall below the demand that materialized?
	underPreds stats.Window
	// lastPred is what Predict returned for the epoch now ending, so
	// UpdateModel can score it against the realized maximum. It tracks
	// the model's own output even while the safeguard is intercepting,
	// which is what lets the assessment observe recovery.
	lastPred     int
	haveLastPred bool
	failing      bool

	corrupt func(*Sample)
	// corrupted is the copy of the current sample handed to corrupt.
	corrupted Sample
	broken    bool
}

// init builds the Model in place, in a zero m.
func (m *Model) init(n *node.Node, cfg Config, sched core.Schedule) error {
	vm := n.VM(cfg.PrimaryVM)
	if vm == nil {
		return fmt.Errorf("harvest: unknown primary VM %q", cfg.PrimaryVM)
	}
	cores := vm.AllocatedCores()
	if err := m.cls.Init(cores+1, featureDims, cfg.LearningRate); err != nil {
		return err
	}
	// One slab holds an epoch's samples, then the top of their order
	// that the p95 feature selects from, then the cost vector; each
	// part's capacity is capped at its own length, so none can write
	// into the next.
	per := max(sched.DataPerEpoch, 1)
	lo, _, _ := stats.PercentileRank(per, tailPercentile)
	top := 2*per - lo
	slab := make([]float64, top+cores+1)
	m.vm = vm
	m.cfg = cfg
	m.cores = cores
	m.samples = slab[:0:per]
	m.scratch = slab[per:per:top]
	m.costs = slab[top:]
	m.underPreds = *stats.NewWindow(cfg.UnderPredWindow)
	return nil
}

// SetCorruptor installs a raw-sample mutator for fault injection.
func (m *Model) SetCorruptor(f func(*Sample)) { m.corrupt = f }

// Break forces predictions of zero core need — the systematic
// under-prediction failure of Figure 6 (middle).
func (m *Model) Break(b bool) { m.broken = b }

// Classifier exposes the underlying model for inspection.
func (m *Model) Classifier() *linear.CostSensitive { return &m.cls }

// CollectData implements core.Model.
func (m *Model) CollectData() (Sample, error) {
	s := Sample{
		Util:    m.vm.CurrentUtil(),
		Granted: m.vm.AvailableCores(),
		Unmet:   m.vm.CurrentUnmet(),
	}
	if m.corrupt != nil {
		// The corruptor works on a model-owned copy: taking s's own
		// address for a call through a func value would move every
		// sample to the heap, corruptor or not.
		m.corrupted = s
		m.corrupt(&m.corrupted)
		return m.corrupted, nil
	}
	return s, nil
}

// ValidateData implements core.Model. Range checks plus the paper's
// full-utilization discard: when the primary VM uses every granted
// core, actual demand is censored and the sample would teach the model
// to under-predict.
func (m *Model) ValidateData(s Sample) error {
	if s.Util < 0 || s.Util > float64(m.cores)+0.01 {
		return ErrUsageRange
	}
	if s.Util >= float64(s.Granted)-1e-9 && s.Granted < m.cores {
		return ErrCensored
	}
	if s.Util >= float64(m.cores)-1e-9 {
		return ErrFullAllocation
	}
	return nil
}

// CommitData implements core.Model.
func (m *Model) CommitData(t time.Time, s Sample) { m.samples = append(m.samples, s.Util) }

// UpdateModel implements core.Model: label the previous epoch's
// features with this epoch's observed maximum and take one
// cost-sensitive learning step.
func (m *Model) UpdateModel() {
	if len(m.samples) == 0 {
		return
	}
	maxUtil := stats.Max(m.samples)
	label := int(math.Ceil(maxUtil - 1e-9))
	if label > m.cores {
		label = m.cores
	}
	if label < 0 {
		label = 0
	}

	// Score the prediction that targeted this epoch against what
	// actually happened. This is the model-assessment signal: the
	// fraction of epochs where the model's forecast would have left the
	// primary VM short of cores.
	if m.haveLastPred {
		under := 0.0
		if m.lastPred < label {
			under = 1
		}
		m.underPreds.Add(under)
	}

	if m.haveFeatures {
		linear.FillAsymmetricCosts(m.costs, label, m.cfg.UnderCost, m.cfg.OverCost)
		m.cls.Update(m.feats[:], m.costs)
	}
	m.feats = m.features(m.samples)
	m.haveFeatures = true
	m.samples = m.samples[:0]
}

// Predict implements core.Model: the class with the lowest predicted
// cost is the core demand forecast for the next 25 ms.
func (m *Model) Predict() (core.Prediction[int], error) {
	if m.broken {
		m.lastPred = 0
		m.haveLastPred = true
		return core.Prediction[int]{Value: 0}, nil
	}
	if !m.haveFeatures {
		return core.Prediction[int]{}, errNoFeatures
	}
	m.lastPred = m.cls.Predict(m.feats[:])
	m.haveLastPred = true
	return core.Prediction[int]{Value: m.lastPred}, nil
}

// DefaultPredict implements core.Model: predict full core demand, i.e.
// harvest nothing. Observed usage is censored exactly when the model is
// in trouble (saturation means true demand is unknowable), so any
// usage-derived default can under-grant; the only always-safe forecast
// is the whole allocation. Efficiency is sacrificed — that is the
// documented cost of a default prediction.
func (m *Model) DefaultPredict() core.Prediction[int] {
	return core.Prediction[int]{Value: m.cores}
}

// AssessModel implements core.Model: failing while too many recent
// model predictions would have left the primary VM out of cores. The
// fail and recover thresholds differ (hysteresis) so the assessment
// settles instead of flapping.
func (m *Model) AssessModel() bool {
	if m.underPreds.Len() < m.cfg.UnderPredWindow/4 {
		return !m.failing
	}
	frac := m.underPreds.Mean()
	if m.failing {
		m.failing = frac > m.cfg.UnderPredRecoverAt
	} else {
		m.failing = frac > m.cfg.UnderPredFailAt
	}
	return !m.failing
}

// Failing reports the model's own assessment state.
func (m *Model) Failing() bool { return m.failing }

// features computes the distributional feature vector over one epoch's
// usage samples, normalized by the core count.
func (m *Model) features(utils []float64) [featureDims]float64 {
	c := float64(m.cores)
	nHalf := len(utils) / 2
	trend := stats.Mean(utils[nHalf:]) - stats.Mean(utils[:nHalf])
	var w stats.Welford
	for _, u := range utils {
		w.Add(u)
	}
	var p95 float64
	p95, m.scratch = stats.PercentileBuf(m.scratch, utils, tailPercentile)
	return [featureDims]float64{
		w.Mean() / c,
		stats.Max(utils) / c,
		p95 / c,
		w.StdDev() / c,
		utils[len(utils)-1] / c,
		trend / c,
	}
}

// Actuator is the control half of SmartHarvest.
type Actuator struct {
	primary *node.VM
	elastic *node.VM // nil without an ElasticVM
	cfg     Config

	cores    int
	prevWait float64
	havePrev bool
	waits    stats.Window
	// tail is the reusable result buffer for WaitTailMs.
	tail []float64
	// granted is the most recent grant, for inspection.
	granted int
}

// init builds the Actuator in place, in a zero a.
func (a *Actuator) init(n *node.Node, cfg Config) error {
	vm := n.VM(cfg.PrimaryVM)
	if vm == nil {
		return fmt.Errorf("harvest: unknown primary VM %q", cfg.PrimaryVM)
	}
	var elastic *node.VM
	if cfg.ElasticVM != "" {
		if elastic = n.VM(cfg.ElasticVM); elastic == nil {
			return fmt.Errorf("harvest: unknown elastic VM %q", cfg.ElasticVM)
		}
	}
	a.primary = vm
	a.elastic = elastic
	a.cfg = cfg
	a.cores = vm.AllocatedCores()
	a.waits = *stats.NewWindow(cfg.WaitWindow)
	a.granted = vm.AllocatedCores()
	return nil
}

// TakeAction implements core.Actuator: grant the primary VM its
// predicted need plus the safety buffer; loan the rest to the elastic
// VM. Without a fresh prediction, return everything — the conservative
// action that protects customer QoS at the cost of harvesting nothing.
func (a *Actuator) TakeAction(pred *core.Prediction[int]) {
	grant := a.cores
	if pred != nil {
		grant = pred.Value + a.cfg.SafetyBuffer
		if grant < 1 {
			grant = 1
		}
		if grant > a.cores {
			grant = a.cores
		}
	}
	a.apply(grant)
}

func (a *Actuator) apply(grant int) {
	a.granted = grant
	a.primary.SetAvailableCores(grant)
	if a.elastic != nil {
		a.elastic.SetAvailableCores(a.cores - grant)
	}
}

// Granted returns the primary VM's current core grant.
func (a *Actuator) Granted() int { return a.granted }

// AssessPerformance implements core.Actuator: track per-interval vCPU
// wait and trigger when its P99 exceeds the threshold.
func (a *Actuator) AssessPerformance() bool {
	cur := a.primary.WaitSeconds()
	if a.havePrev {
		a.waits.Add((cur - a.prevWait) * 1000) // ms of core-wait this interval
	}
	a.prevWait = cur
	a.havePrev = true
	if a.waits.Len() < a.cfg.WaitWindow/4 {
		return true
	}
	return a.waits.Percentile(99) <= a.cfg.WaitP99ThresholdMs
}

// WaitTailMs returns the P90 and P99 of per-interval vCPU wait (ms)
// over the safeguard window — the signal AssessPerformance triggers
// on — computed with one sort via Window.Percentiles. Diagnostic;
// call it from the goroutine driving the agent's clock.
func (a *Actuator) WaitTailMs() (p90, p99 float64) {
	a.tail = a.waits.Percentiles(a.tail[:0], 90, 99)
	return a.tail[0], a.tail[1]
}

// Mitigate implements core.Actuator: stop harvesting; all cores go back
// to the primary VM.
func (a *Actuator) Mitigate() {
	a.apply(a.cores)
}

// CleanUp implements core.Actuator: idempotent full restore.
func (a *Actuator) CleanUp() { a.apply(a.cores) }
