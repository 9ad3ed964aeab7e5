// Package sampler implements SmartSampler, an adaptive-telemetry
// monitoring agent. It is the extension the SOL paper motivates but
// does not build: §2 argues that monitoring/logging agents (18 of the
// 77 Azure node agents) can use online learning — "multi-armed bandits
// can be used to smartly decide what telemetry to sample ... while
// staying within the collection and logging budget".
//
// SmartSampler allocates a fixed per-interval sampling budget across
// telemetry channels. A Thompson-sampling bandit per channel learns
// which channels are currently yielding events; the allocation samples
// the channels with the highest posterior draws, so bursty channels
// attract budget while steady channels are sampled just often enough
// to notice a change.
//
// Safeguards, in the SOL mold:
//
//   - Data validation: negative or absurd event counts (corrupted
//     counters) are discarded.
//   - Model assessment: one audit channel per epoch is sampled every
//     interval regardless of allocation; if the allocation would have
//     missed most of its events, the model is under-covering.
//   - Default prediction: round-robin allocation — the static policy a
//     non-learning monitoring agent uses.
//   - Actuator safeguard: budget overruns; the agent must never exceed
//     its logging budget, and mitigation resets to round-robin.
package sampler

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sol/internal/core"
	"sol/internal/ml/bandit"
	"sol/internal/stats"
	"sol/internal/telemetry"
)

// ErrCountRange is ValidateData's verdict on a negative or absurd
// event count. Preallocated: the runtime counts rejections and drops
// the error.
var ErrCountRange = errors.New("sampler: event count out of range")

// ChannelCount is the events observed on one sampled channel.
type ChannelCount struct {
	Channel, Count int
}

// Obs is one interval's sampling results (the Model's data type D).
type Obs struct {
	// Counts holds one entry per sampled channel, in allocation order.
	// It aliases a buffer the Model reuses: valid until the next
	// CollectData.
	Counts []ChannelCount
	// AuditChannel and AuditCount are the per-epoch audit channel's
	// reading (always sampled, outside the learned allocation).
	AuditChannel int
	AuditCount   int
	// At is the collection time.
	At time.Time
}

// Allocation is the prediction: the channels to sample next interval,
// in priority order.
type Allocation struct {
	Channels []int
}

// Config tunes the agent.
type Config struct {
	// EpochIntervals is the number of sampling intervals per learning
	// epoch.
	EpochIntervals int
	// Decay is the bandit forgetting factor per epoch.
	Decay float64
	// MissThreshold fails the model when the audit says the allocation
	// would have missed more than this fraction of audit events.
	MissThreshold float64
	// Seed drives Thompson sampling and audit choice.
	Seed uint64
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{EpochIntervals: 20, Decay: 0.95, MissThreshold: 0.5, Seed: 1}
}

// Schedule returns the SOL schedule: one collection per 100 ms
// interval, 20 intervals per 2 s epoch.
func Schedule() core.Schedule {
	return core.Schedule{
		DataPerEpoch:           20,
		DataCollectInterval:    100 * time.Millisecond,
		MaxEpochTime:           3 * time.Second,
		AssessModelEvery:       1,
		MaxActuationDelay:      2 * time.Second,
		AssessActuatorInterval: time.Second,
		PredictionTTL:          4 * time.Second,
	}
}

// Model is the learning half of SmartSampler.
type Model struct {
	src *telemetry.Source
	cfg Config
	rng stats.RNG

	// bandits holds one one-armed bandit per channel: only the posterior
	// of arm 0 is used, as the channel's "worth sampling now" estimate.
	bandits bandit.Bank
	alloc   []int // current allocation (what CollectData samples)

	audit       int
	sweep       int
	auditHits   int
	auditTotal  int
	epochCounts []int
	failing     bool
	broken      bool

	// counts and draws are scratch for CollectData and Predict.
	counts []ChannelCount
	draws  drawOrder
}

// init builds the Model in place, in a zero m.
func (m *Model) init(src *telemetry.Source, cfg Config) error {
	if cfg.EpochIntervals <= 0 {
		return fmt.Errorf("sampler: EpochIntervals = %d", cfg.EpochIntervals)
	}
	m.rng = *stats.NewRNG(cfg.Seed)
	if err := m.bandits.Init(src.Channels(), 1, &m.rng); err != nil {
		return err
	}
	m.src = src
	m.cfg = cfg
	m.epochCounts = make([]int, src.Channels())
	m.counts = make([]ChannelCount, 0, src.Config().Budget)
	m.draws = make(drawOrder, src.Channels())
	m.alloc = m.roundRobin(0)
	m.audit = m.rng.Intn(src.Channels())
	return nil
}

// Break forces a degenerate allocation (always the same channels),
// the broken-model failure for experiments.
func (m *Model) Break(b bool) { m.broken = b }

// Failing reports the model's own assessment state.
func (m *Model) Failing() bool { return m.failing }

// roundRobin returns a budget-sized window of channels starting at
// offset — the static default policy.
func (m *Model) roundRobin(offset int) []int {
	budget := m.src.Config().Budget
	out := make([]int, budget)
	for i := 0; i < budget; i++ {
		out[i] = (offset + i) % m.src.Channels()
	}
	return out
}

// CollectData implements core.Model: sample the current allocation
// plus the audit channel.
func (m *Model) CollectData() (Obs, error) {
	o := Obs{Counts: m.counts[:0], AuditChannel: m.audit}
	for _, ch := range m.alloc {
		if ch == m.audit {
			continue // audited below at full rate
		}
		n, err := m.src.Sample(ch)
		if err != nil {
			return Obs{}, err
		}
		o.Counts = append(o.Counts, ChannelCount{Channel: ch, Count: n})
	}
	m.counts = o.Counts
	n, err := m.src.Sample(m.audit)
	if err != nil {
		return Obs{}, err
	}
	o.AuditCount = n
	return o, nil
}

// ValidateData implements core.Model: discard corrupted counts.
func (m *Model) ValidateData(o Obs) error {
	for _, c := range o.Counts {
		if c.Count < 0 || c.Count > 1e6 {
			return ErrCountRange
		}
	}
	if o.AuditCount < 0 || o.AuditCount > 1e6 {
		return ErrCountRange
	}
	return nil
}

// CommitData implements core.Model.
func (m *Model) CommitData(t time.Time, o Obs) {
	for _, c := range o.Counts {
		m.epochCounts[c.Channel] += c.Count
	}
	m.epochCounts[o.AuditChannel] += o.AuditCount
	m.auditTotal += o.AuditCount
	inAlloc := false
	for _, ch := range m.alloc {
		if ch == o.AuditChannel {
			inAlloc = true
		}
	}
	if inAlloc {
		m.auditHits += o.AuditCount
	}
}

// UpdateModel implements core.Model: reward sampled channels by their
// per-sample yield — a channel is "worth the budget" when each sample
// returns at least one event — then decay toward the prior so bursts
// can re-rank channels quickly.
func (m *Model) UpdateModel() {
	for ch := range m.epochCounts {
		b := m.bandits.At(ch)
		inAlloc := false
		for _, a := range m.alloc {
			if a == ch {
				inAlloc = true
			}
		}
		if inAlloc || ch == m.audit {
			perSample := float64(m.epochCounts[ch]) / float64(m.cfg.EpochIntervals)
			b.Reward(0, perSample >= 1.0)
		}
		b.Decay(m.cfg.Decay)
		m.epochCounts[ch] = 0
	}
}

// Predict implements core.Model: draw from each channel's posterior
// and allocate the budget to the highest draws.
func (m *Model) Predict() (core.Prediction[Allocation], error) {
	n := m.src.Channels()
	budget := m.src.Config().Budget
	if m.broken {
		// Degenerate: always the first channels, ignoring everything.
		fixed := make([]int, budget)
		for i := range fixed {
			fixed[i] = i
		}
		m.alloc = fixed
		return core.Prediction[Allocation]{Value: Allocation{Channels: fixed}}, nil
	}
	draws := m.draws
	for ch := 0; ch < n; ch++ {
		draws[ch] = draw{ch: ch, v: m.bandits.At(ch).Posterior(0).Sample(&m.rng)}
	}
	sort.Sort(&m.draws)
	// Budget−1 exploitation slots plus one sweep slot that rotates over
	// the remaining channels: sweeping is what notices a quiet channel
	// beginning to burst, which pure posterior sampling starves out
	// once the posteriors concentrate.
	out := make([]int, 0, budget)
	for i := 0; i < budget-1; i++ {
		out = append(out, draws[i].ch)
	}
	m.sweep = (m.sweep + 1) % n
	for contains(out, m.sweep) {
		m.sweep = (m.sweep + 1) % n
	}
	out = append(out, m.sweep)
	m.alloc = out
	m.nextAudit()
	return core.Prediction[Allocation]{Value: Allocation{Channels: out}}, nil
}

// draw is one channel's posterior sample; drawOrder sorts draws highest
// first. It is sort.Slice's comparison as a sort.Interface over
// model-owned storage, so ranking the channels does not allocate.
type draw struct {
	ch int
	v  float64
}

type drawOrder []draw

func (d *drawOrder) Len() int           { return len(*d) }
func (d *drawOrder) Less(a, b int) bool { return (*d)[a].v > (*d)[b].v }
func (d *drawOrder) Swap(a, b int)      { (*d)[a], (*d)[b] = (*d)[b], (*d)[a] }

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// DefaultPredict implements core.Model: the static round-robin sweep.
func (m *Model) DefaultPredict() core.Prediction[Allocation] {
	off := m.rng.Intn(m.src.Channels())
	m.alloc = m.roundRobin(off)
	m.nextAudit()
	return core.Prediction[Allocation]{Value: Allocation{Channels: m.alloc}}
}

func (m *Model) nextAudit() {
	m.audit = m.rng.Intn(m.src.Channels())
	m.auditHits = 0
	m.auditTotal = 0
}

// AssessModel implements core.Model: the audit channel was sampled
// every interval; if the learned allocation would have covered too few
// of its events, the allocation is under-covering the node.
func (m *Model) AssessModel() bool {
	if m.auditTotal < 3 {
		return !m.failing // too little audit evidence; keep prior state
	}
	missed := 1 - float64(m.auditHits)/float64(m.auditTotal)
	m.failing = missed > m.cfg.MissThreshold
	return !m.failing
}

// Actuator is the control half of SmartSampler: it publishes the
// allocation (in a real deployment, reconfiguring collectors) and
// guards the logging budget.
type Actuator struct {
	src *telemetry.Source

	current    []int
	prev       telemetry.Stats
	havePrev   bool
	defaultRR  int
	actuations uint64
}

// init builds the Actuator in place, in a zero a.
func (a *Actuator) init(src *telemetry.Source) {
	budget := src.Config().Budget
	rr := make([]int, budget)
	for i := range rr {
		rr[i] = i
	}
	a.src = src
	a.current = rr
}

// TakeAction implements core.Actuator. A nil prediction keeps the
// previous allocation rotated by one — the safe sweep.
func (a *Actuator) TakeAction(p *core.Prediction[Allocation]) {
	a.actuations++
	if p == nil {
		a.defaultRR++
		n := a.src.Channels()
		budget := a.src.Config().Budget
		rr := make([]int, budget)
		for i := range rr {
			rr[i] = (a.defaultRR + i) % n
		}
		a.current = rr
		return
	}
	a.current = p.Value.Channels
}

// Allocation returns the channels currently being sampled.
func (a *Actuator) Allocation() []int { return a.current }

// AssessPerformance implements core.Actuator: the agent must never
// exceed its logging budget.
func (a *Actuator) AssessPerformance() bool {
	cur := a.src.Snapshot()
	if !a.havePrev {
		a.prev = cur
		a.havePrev = true
		return true
	}
	over := cur.OverBudget - a.prev.OverBudget
	a.prev = cur
	return over == 0
}

// Mitigate implements core.Actuator: reset to the round-robin sweep.
func (a *Actuator) Mitigate() {
	budget := a.src.Config().Budget
	rr := make([]int, budget)
	for i := range rr {
		rr[i] = i
	}
	a.current = rr
}

// CleanUp implements core.Actuator: idempotent reset to round-robin.
func (a *Actuator) CleanUp() { a.Mitigate() }
