// Package overclock implements SmartOverclock (§5.1 of the SOL paper):
// an on-node agent that uses tabular Q-learning to overclock a VM's
// cores only during the workload phases that benefit, balancing the
// performance gain of higher frequencies against their super-linear
// power cost.
//
// The agent monitors per-VM instructions-per-second (IPS) through the
// hypervisor counters, discretizes the workload phase into RL states,
// and at the end of every one-second learning epoch updates its policy
// and picks the frequency for the next epoch. It exploits the learned
// policy 90% of the time and explores a random frequency 10% of the
// time.
//
// Safeguards (the parts SOL requires):
//
//   - Data validation: every IPS/α reading is range-checked; readings
//     outside [0, max_freq·max_IPC·cores] are discarded before they can
//     poison the policy.
//   - Model assessment: the agent tracks Δr — the observed reward when
//     overclocked minus the reward nominal frequency would have earned.
//     If the recent average goes negative, the model is wasting power;
//     predictions are intercepted and the default (nominal, with
//     continued exploration) is used until Δr recovers.
//   - Delayed predictions: predictions expire after 1.5 s and the
//     actuator acts at least every 5 s, falling back to nominal
//     frequency when no fresh prediction exists.
//   - Actuator safeguard: the P90 of α = (unhalted−stalled)/total over
//     the last 100 s detects sustained low-activity phases; the agent
//     then disables overclocking entirely until activity returns.
package overclock

import (
	"errors"
	"fmt"
	"time"

	"sol/internal/core"
	"sol/internal/ml/qlearn"
	"sol/internal/node"
	"sol/internal/stats"
)

// Sample is one telemetry reading (the Model's data type D).
type Sample struct {
	// IPS is instructions per second since the previous reading, in
	// 1e9-instruction units.
	IPS float64
	// Alpha is (unhalted−stalled)/total cycles over the interval.
	Alpha float64
	// FreqLevel is the DVFS level in effect when the sample was taken.
	FreqLevel int
	// At is the reading time.
	At time.Time
}

// Config tunes the agent. DefaultConfig matches the paper's setup.
type Config struct {
	VM string
	// Lambda is the power-penalty coefficient in the RL reward.
	Lambda float64
	// ExploreRate is the ε of ε-greedy action selection.
	ExploreRate float64
	// FailingExploreRate is the exploration probability used while the
	// model safeguard is intercepting predictions; the paper keeps
	// exploring so the model can recover.
	FailingExploreRate float64
	// DeltaRThreshold: the model fails assessment when the mean Δr of
	// recent overclocked epochs drops below this (negative) value.
	DeltaRThreshold float64
	// DeltaRWindow is how long Δr observations count toward assessment.
	DeltaRWindow time.Duration
	// DeltaRMinSamples is the minimum observations before assessment
	// can fail.
	DeltaRMinSamples int
	// AlphaThreshold is the actuator safeguard's P90-of-α trigger.
	AlphaThreshold float64
	// AlphaWindow is how many 1-second α samples the safeguard keeps
	// (the paper uses 100 seconds).
	AlphaWindow int
	// StateBuckets discretizes normalized IPS into RL states.
	StateBuckets int
	// Seed drives exploration and tie-breaking.
	Seed uint64
}

// DefaultConfig returns the paper-calibrated configuration for vm.
func DefaultConfig(vm string) Config {
	return Config{
		VM:                 vm,
		Lambda:             0.03,
		ExploreRate:        0.10,
		FailingExploreRate: 0.15,
		DeltaRThreshold:    -0.05,
		DeltaRWindow:       12 * time.Second,
		DeltaRMinSamples:   1,
		AlphaThreshold:     0.08,
		AlphaWindow:        100,
		StateBuckets:       10,
		Seed:               1,
	}
}

// Schedule returns the SOL schedule for SmartOverclock: 100 ms counter
// sampling, 10 samples per 1 s learning epoch, a 5 s actuation
// deadline, and 1 s actuator assessment.
func Schedule() core.Schedule {
	return core.Schedule{
		DataPerEpoch:           10,
		DataCollectInterval:    100 * time.Millisecond,
		MaxEpochTime:           1500 * time.Millisecond,
		AssessModelEvery:       1,
		MaxActuationDelay:      5 * time.Second,
		AssessActuatorInterval: 1 * time.Second,
		PredictionTTL:          1500 * time.Millisecond,
	}
}

// deltaRSample is one Δr observation with its timestamp, in Unix ns: 16
// bytes where a time.Time would make it 32.
type deltaRSample struct {
	at int64
	dr float64
}

// ValidateData's verdicts, preallocated: the runtime counts rejections
// and drops the error.
var (
	// ErrIPSRange rejects an IPS reading outside [0, 1.05·MaxIPS].
	ErrIPSRange = errors.New("overclock: IPS outside [0, max]")
	// ErrAlphaRange rejects an α reading outside [0, 1].
	ErrAlphaRange = errors.New("overclock: alpha outside [0, 1]")
)

// Model is the learning half of SmartOverclock. The prediction type is
// the DVFS level to apply next epoch.
type Model struct {
	n   *node.Node
	vm  *node.VM
	cfg Config
	rl  qlearn.Learner
	rng stats.RNG

	prev     node.CPUCounters
	havePrev bool
	// The epoch's committed samples, folded as they arrive: committed
	// of them, ipsSum their IPS summed in commit order, freqCount their
	// tally per DVFS level, and lastAt the latest one's reading time.
	committed int
	ipsSum    float64
	freqCount []int
	lastAt    time.Time
	prevState int
	haveState bool

	// deltaR is the Δr log over the last DeltaRWindow, sized at build
	// for one overclocked epoch per DataPerEpoch·DataCollectInterval
	// (deltaRCap).
	deltaR  []deltaRSample
	failing bool

	// corrupt, when non-nil, mutates raw samples (fault injection);
	// corrupted is the copy of the current sample handed to it.
	corrupt   func(*Sample)
	corrupted Sample
	// broken forces the policy to always pick the highest frequency
	// (the Figure 3 "inaccurate model" fault).
	broken bool

	lastState int
	levels    int
	nominal   int
	ipsRef    float64
	// maxIPS is ValidateData's upper range bound, 1.05·MaxIPS.
	maxIPS float64
}

// init builds the Model in place, in a zero m.
func (m *Model) init(n *node.Node, cfg Config, sched core.Schedule) error {
	vm := n.VM(cfg.VM)
	if vm == nil {
		return fmt.Errorf("overclock: unknown VM %q", cfg.VM)
	}
	levels := len(n.Config().Frequencies.GHz)
	if err := m.rl.Init(qlearn.Config{
		States:  cfg.StateBuckets,
		Actions: levels,
		Alpha:   0.4,
		Gamma:   0.3,
		Epsilon: cfg.ExploreRate,
		// Optimistic initialization: every action starts looking better
		// than any achievable reward, so each state tries all three
		// frequencies before settling — crucial when busy phases are a
		// small fraction of epochs.
		InitQ:    0.8,
		RandSeed: cfg.Seed,
	}); err != nil {
		return err
	}
	nomGHz := n.Config().Frequencies.GHz[n.NominalLevel()]
	m.n = n
	m.vm = vm
	m.cfg = cfg
	m.rng = *stats.NewRNG(cfg.Seed ^ 0xa5a5a5a5)
	m.levels = levels
	m.nominal = n.NominalLevel()
	m.ipsRef = float64(vm.AllocatedCores()) * nomGHz * n.Config().MaxIPC
	m.maxIPS = n.MaxIPS(cfg.VM) * 1.05
	m.freqCount = make([]int, levels)
	m.deltaR = make([]deltaRSample, 0, deltaRCap(cfg.DeltaRWindow, sched))
	return nil
}

// deltaRCap is the most Δr observations the log holds at once: one per
// epoch, and an epoch lasts at least DataPerEpoch collect intervals, so
// ⌈window/epoch⌉ of them are inside the window when UpdateModel appends
// the next, before pruning — 13 at the defaults.
func deltaRCap(window time.Duration, sched core.Schedule) int {
	epoch := time.Duration(sched.DataPerEpoch) * sched.DataCollectInterval
	if epoch <= 0 || window <= 0 {
		return 1
	}
	return int((window+epoch-1)/epoch) + 1
}

// SetCorruptor installs (or clears) a raw-sample mutator for fault
// injection.
func (m *Model) SetCorruptor(f func(*Sample)) { m.corrupt = f }

// Break forces the policy to always select the highest frequency,
// reproducing the paper's broken-model failure. The learning machinery
// keeps running; only action selection is overridden.
func (m *Model) Break(b bool) { m.broken = b }

// Learner exposes the underlying Q-learner for inspection.
func (m *Model) Learner() *qlearn.Learner { return &m.rl }

// CollectData implements core.Model: it reads the VM's cumulative
// counters and differences them against the previous reading.
func (m *Model) CollectData() (Sample, error) {
	cur := m.vm.Counters()
	s := Sample{FreqLevel: m.vm.FrequencyLevel(), At: cur.At}
	if m.havePrev {
		s.IPS = cur.IPS(m.prev)
		s.Alpha = cur.Alpha(m.prev)
	}
	m.prev = cur
	m.havePrev = true
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

// ValidateData implements core.Model: range checks on IPS and α. These
// are the checks that keep bad counter readings (Figure 2) out of the
// policy.
func (m *Model) ValidateData(s Sample) error {
	if s.IPS < 0 || s.IPS > m.maxIPS {
		return ErrIPSRange
	}
	if s.Alpha < -0.01 || s.Alpha > 1.01 {
		return ErrAlphaRange
	}
	return nil
}

// CommitData implements core.Model: fold the sample into the epoch's
// running sums.
func (m *Model) CommitData(t time.Time, s Sample) {
	m.committed++
	m.ipsSum += s.IPS
	m.freqCount[s.FreqLevel]++
	m.lastAt = s.At
}

// UpdateModel implements core.Model: it computes the epoch's
// state/reward and applies one Q-learning step for the frequency that
// was actually in effect.
func (m *Model) UpdateModel() {
	if m.committed == 0 {
		return
	}
	ips := m.ipsSum / float64(m.committed)
	applied := 0
	for lvl, c := range m.freqCount {
		if c > m.freqCount[applied] {
			applied = lvl
		}
	}
	now := m.lastAt.UnixNano()
	m.committed, m.ipsSum = 0, 0
	clear(m.freqCount)

	state := m.stateOf(ips, applied)
	reward := m.reward(ips, applied)

	if m.haveState {
		m.rl.Update(m.prevState, applied, reward, state)
	}
	m.prevState = state
	m.haveState = true
	m.lastState = state

	// Δr bookkeeping: how much better (or worse) this overclocked epoch
	// did versus staying at nominal frequency.
	if applied > m.nominal {
		f := m.freq(applied)
		nomIPSNorm := (ips / m.ipsRef) * (m.freq(m.nominal) / f)
		dr := reward - nomIPSNorm
		m.deltaR = append(m.deltaR, deltaRSample{at: now, dr: dr})
	}
	m.pruneDeltaR(now)
}

// Predict implements core.Model: ε-greedy action for the next epoch.
func (m *Model) Predict() (core.Prediction[int], error) {
	if m.broken {
		return core.Prediction[int]{Value: m.levels - 1}, nil
	}
	action, _ := m.rl.SelectAction(m.lastState)
	return core.Prediction[int]{Value: action}, nil
}

// DefaultPredict implements core.Model: the safe default is nominal
// frequency. While the model safeguard is active the agent keeps
// exploring (at FailingExploreRate) so Δr evidence accumulates and the
// model can recover, exactly as §5.1 describes. Exploration here draws
// from the overclocked levels only — an exploratory epoch at nominal
// frequency produces no Δr observation and cannot help recovery.
func (m *Model) DefaultPredict() core.Prediction[int] {
	if m.failing && m.rng.Bool(m.cfg.FailingExploreRate) {
		return core.Prediction[int]{Value: 1 + m.rng.Intn(m.levels-1)}
	}
	return core.Prediction[int]{Value: m.nominal}
}

// AssessModel implements core.Model: healthy while the average Δr of
// recent overclocked epochs stays above the threshold.
func (m *Model) AssessModel() bool {
	if len(m.deltaR) < m.cfg.DeltaRMinSamples {
		// Not enough evidence to condemn the model. Stay in the current
		// state: a failing model remains failing until fresh positive
		// evidence arrives.
		return !m.failing
	}
	sum := 0.0
	for _, d := range m.deltaR {
		sum += d.dr
	}
	m.failing = sum/float64(len(m.deltaR)) < m.cfg.DeltaRThreshold
	return !m.failing
}

// Failing reports whether the model currently fails its own assessment.
func (m *Model) Failing() bool { return m.failing }

// pruneDeltaR drops the observations at or before now−DeltaRWindow, now
// in Unix ns.
func (m *Model) pruneDeltaR(now int64) {
	cut := now - int64(m.cfg.DeltaRWindow)
	keep := m.deltaR[:0]
	for _, d := range m.deltaR {
		if d.at > cut {
			keep = append(keep, d)
		}
	}
	m.deltaR = keep
}

func (m *Model) freq(level int) float64 { return m.n.Config().Frequencies.GHz[level] }

// stateOf buckets the frequency-invariant phase signal
// IPS/(cores·f·maxIPC) into StateBuckets discrete states.
func (m *Model) stateOf(ips float64, level int) int {
	denom := float64(m.vm.AllocatedCores()) * m.freq(level) * m.n.Config().MaxIPC
	norm := 0.0
	if denom > 0 {
		norm = stats.Clamp(ips/denom, 0, 0.999)
	}
	return int(norm * float64(m.cfg.StateBuckets))
}

// reward is normalized IPS minus the power penalty of the applied
// frequency relative to nominal.
func (m *Model) reward(ips float64, level int) float64 {
	return ips/m.ipsRef - m.cfg.Lambda*m.powerPenalty(level)
}

// powerPenalty is the relative extra power of a level versus nominal:
// f·V²/(f_nom·V_nom²) − 1.
func (m *Model) powerPenalty(level int) float64 {
	fr := m.n.Config().Frequencies
	cur := fr.GHz[level] * fr.Voltages[level] * fr.Voltages[level]
	nom := fr.GHz[m.nominal] * fr.Voltages[m.nominal] * fr.Voltages[m.nominal]
	return cur/nom - 1
}

// Actuator is the control half of SmartOverclock.
type Actuator struct {
	n   *node.Node
	vm  *node.VM
	cfg Config

	prev     node.CPUCounters
	havePrev bool
	alphas   stats.Window
	// minSamples gates the safeguard until the α window has enough
	// history to be meaningful.
	minSamples int
}

// init builds the Actuator in place, in a zero a.
func (a *Actuator) init(n *node.Node, cfg Config) error {
	vm := n.VM(cfg.VM)
	if vm == nil {
		return fmt.Errorf("overclock: unknown VM %q", cfg.VM)
	}
	a.n = n
	a.vm = vm
	a.cfg = cfg
	a.alphas = *stats.NewWindow(cfg.AlphaWindow)
	a.minSamples = cfg.AlphaWindow / 4
	return nil
}

// TakeAction implements core.Actuator: apply the predicted frequency,
// or fall back to nominal when no fresh prediction exists.
func (a *Actuator) TakeAction(pred *core.Prediction[int]) {
	level := a.n.NominalLevel()
	if pred != nil {
		level = pred.Value
	}
	// Guard against out-of-range predictions from a corrupted model:
	// clamp rather than crash, and the nominal default wins.
	if level < 0 || level >= len(a.n.Config().Frequencies.GHz) {
		level = a.n.NominalLevel()
	}
	if err := a.n.SetFrequencyLevel(a.cfg.VM, level); err != nil {
		// The VM exists (checked at construction); setting can only
		// fail on level range, which is clamped above.
		panic(err)
	}
}

// AssessPerformance implements core.Actuator: sample α once per call
// and trigger when the P90 over the window falls below the threshold —
// the workload is in a sustained low-activity phase where overclocking
// only wastes power.
func (a *Actuator) AssessPerformance() bool {
	cur := a.vm.Counters()
	if a.havePrev {
		a.alphas.Add(cur.Alpha(a.prev))
	}
	a.prev = cur
	a.havePrev = true
	if a.alphas.Len() < a.minSamples {
		return true
	}
	return a.alphas.Percentile(90) >= a.cfg.AlphaThreshold
}

// Mitigate implements core.Actuator: restore all cores to nominal.
func (a *Actuator) Mitigate() {
	_ = a.n.SetFrequencyLevel(a.cfg.VM, a.n.NominalLevel())
}

// CleanUp implements core.Actuator: idempotent restore to nominal.
func (a *Actuator) CleanUp() {
	_ = a.n.SetFrequencyLevel(a.cfg.VM, a.n.NominalLevel())
}
