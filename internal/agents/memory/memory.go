// Package memory implements SmartMemory (§5.3 of the SOL paper): an
// agent for managed two-tier memory systems that learns, per 2 MB
// region, the lowest page-access-bit scanning frequency that still
// resolves the region's access rate — minimizing TLB-flushing scans —
// and classifies memory as hot, warm, or cold so that hot regions live
// in first-tier DRAM and the rest can be offloaded.
//
// Learning uses Thompson sampling with a Beta prior, one bandit per
// region, over scan intervals from 300 ms to 9.6 s (doubling). Each
// 38.4-second epoch (4× the slowest period) the agent scores the arm it
// played: a region was undersampled when its chosen rate lost accesses
// to access-bit saturation, oversampled when the next slower rate would
// have been lossless too, and well sampled otherwise.
//
// Safeguards:
//
//   - Data validation: the scanning driver's error codes fail the
//     sample, discarding that tick's scan results.
//   - Model assessment: 10% of regions are audited at the maximum
//     frequency; if the model-recommended rates would have missed more
//     than 25% of the accesses the audit observed, the model is
//     undersampling and its placements are intercepted.
//   - Default predictions: hit counts are downsampled to the slowest
//     common rate for comparability, and only the coldest 5% of regions
//     are offloaded — conservative placement that protects QoS without
//     disabling the second tier.
//   - Stale predictions need no immediate action (pages simply stay
//     where they are); the actuator safeguard covers the fallout.
//   - Actuator safeguard: when the remote-access fraction exceeds the
//     20% SLO, the agent immediately migrates the hottest second-tier
//     regions back to DRAM, hottest first, as capacity allows.
package memory

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"sol/internal/core"
	"sol/internal/memsim"
	"sol/internal/ml/bandit"
	"sol/internal/stats"
)

// NumArms is the number of scan-interval arms: 300 ms × 2^k for
// k = 0..5, i.e. 300 ms to 9.6 s.
const NumArms = 6

// ErrScanDriver is ValidateData's verdict on a tick whose scans hit a
// driver error; the driver's own error stays readable in Tick.Err.
// Preallocated: the runtime counts rejections and drops the error.
var ErrScanDriver = errors.New("memory: scan driver error")

var errNoRates = errors.New("memory: no rate estimates yet")

// Tick is one base-tick collection (the Model's data type D): the scan
// results of every region due this tick, including audit scans.
type Tick struct {
	// Scans aliases a buffer the Model reuses: it is valid until the
	// next CollectData.
	Scans []memsim.ScanResult
	// Err carries a scanning-driver error; validation fails the sample.
	Err error
	// At is the collection time.
	At time.Time
}

// Placement is the Model's prediction: which regions belong in tier 2
// (warm and cold); every other region belongs in tier 1. Rates carries
// the per-region hotness estimates so the Actuator can order
// mitigation migrations hottest-first.
type Placement struct {
	Tier2 []int
	Rates []float64
}

// Config tunes the agent.
type Config struct {
	// CoverageTarget is the fraction of estimated accesses the hot set
	// must cover; the paper targets 80% local accesses, and a little
	// margin keeps the SLO attainable under estimation noise.
	CoverageTarget float64
	// DefaultOffloadFrac is the fraction of coldest regions offloaded
	// by default predictions (the paper's conservative 5%).
	DefaultOffloadFrac float64
	// AuditFrac is the fraction of regions scanned at maximum rate as
	// assessment ground truth.
	AuditFrac float64
	// MissedThreshold fails the model when the estimated fraction of
	// missed accesses exceeds it (the paper's 25%).
	MissedThreshold float64
	// ColdAfter excludes regions untouched this long from scanning and
	// analysis (the paper's 3 minutes).
	ColdAfter time.Duration
	// RemoteSLO is the actuator safeguard's remote-access-fraction
	// trigger (the paper's 20%).
	RemoteSLO float64
	// MitigateBatches is how many hot tier-2 regions a mitigation
	// migrates back (the paper's 100).
	MitigateBatches int
	// MinAssessAccesses gates the actuator safeguard: intervals with
	// fewer total accesses than this are not judged against the SLO. A
	// sleeping VM's trickle of stray accesses says nothing about QoS.
	MinAssessAccesses float64
	// LossTarget is the per-arm lossless-ness ratio that separates
	// well-sampled from under/over-sampled.
	LossTarget float64
	// BanditDecay is the per-epoch forgetting factor for the Beta
	// posteriors, letting regions re-learn after phase changes.
	BanditDecay float64
	// Seed drives audit selection and Thompson sampling.
	Seed uint64
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		CoverageTarget:     0.85,
		DefaultOffloadFrac: 0.05,
		AuditFrac:          0.10,
		MissedThreshold:    0.25,
		ColdAfter:          3 * time.Minute,
		RemoteSLO:          0.20,
		MitigateBatches:    100,
		MinAssessAccesses:  1000,
		LossTarget:         0.93,
		BanditDecay:        0.98,
		Seed:               1,
	}
}

// Schedule returns the SOL schedule for SmartMemory: one collection per
// 300 ms base tick, 128 ticks per 38.4 s epoch, and relaxed actuation
// deadlines (stale placements are safe to keep).
func Schedule() core.Schedule {
	return core.Schedule{
		DataPerEpoch:           128,
		DataCollectInterval:    300 * time.Millisecond,
		MaxEpochTime:           48 * time.Second,
		AssessModelEvery:       1,
		MaxActuationDelay:      45 * time.Second,
		AssessActuatorInterval: 1 * time.Second,
		PredictionTTL:          80 * time.Second, // ~2 epochs
	}
}

// regionState is the per-region learning state, packed to 24 bytes: the
// one float first, then the counters at the width their ranges need. It
// holds no pointers — the region's bandit is Model.bandits.At(r) — so
// the collector never walks the regions slab.
type regionState struct {
	// observedFrac is the sum of this epoch's per-scan set fractions,
	// in commit order.
	observedFrac float64
	// phase offsets the region's scan schedule to stagger load; it is
	// the region index.
	phase int32
	// scans counts this epoch's committed scans (at most one per tick).
	scans int32
	// auditSlot indexes Model.audit while the region is in this epoch's
	// audit set, and is -1 otherwise.
	auditSlot int32
	// arm is the scan-interval arm in play, < NumArms.
	arm  uint8
	cold bool
}

// auditAcc folds one audit slot's epoch of max-rate scan fractions as
// each is committed, in 96 bytes however long the epoch runs. A scanner
// at arm k, every 2^k ticks, sees per scan the union 1−Π(1−f) of its
// group's per-tick fractions; frac(k) averages that over the epoch's
// groups, the last one possibly partial. The slot keeps the count, Σf in
// commit order, and for each arm k >= 1 the closed groups' summed union
// and the open group's Π(1−f): the same operations, in the same order,
// as a fold over a per-tick log, so every result keeps its bits. Holding
// every arm lets UpdateModel score the arm just played and computeMissed
// the arm just selected.
type auditAcc struct {
	n   int
	sum float64
	// closed[k-1] and open[k-1] belong to arm k.
	closed [NumArms - 1]float64
	open   [NumArms - 1]float64
}

// add folds the next committed audit fraction in.
func (a *auditAcc) add(f float64) {
	for k := range a.open {
		mask := 2<<k - 1 // group of 2^(k+1) ticks
		if a.n&mask == 0 {
			a.open[k] = 1
		}
		a.open[k] *= 1 - f
		if (a.n+1)&mask == 0 {
			a.closed[k] += 1 - a.open[k]
		}
	}
	a.sum += f
	a.n++
}

// frac returns the mean set fraction per scan a scanner at arm would
// have seen over the committed ticks: UpdateModel's f for an audited
// region.
func (a *auditAcc) frac(arm int) float64 {
	if a.n == 0 {
		return 0
	}
	if arm == 0 {
		return a.sum / float64(a.n)
	}
	sum := a.closed[arm-1]
	if a.n&(1<<arm-1) != 0 {
		sum += 1 - a.open[arm-1]
	}
	return sum / float64(groupCount(a.n, arm))
}

// observed returns what computeMissed compares for one audit slot: the
// touches a max-rate scanner saw (every tick's count once) and those a
// scanner at arm would have seen (the union within each group).
func (a *auditAcc) observed(arm int) (max, chosen float64) {
	return a.sum, a.frac(arm) * float64(groupCount(a.n, arm))
}

// groupCount returns how many groups of 2^arm ticks n ticks span, the
// last one possibly partial.
func groupCount(n, arm int) int {
	every := 1 << arm
	return (n + every - 1) / every
}

// Model is the learning half of SmartMemory.
type Model struct {
	mem *memsim.Memory
	cfg Config
	rng stats.RNG

	regions []regionState
	bandits bandit.Bank // one scan-interval bandit per region
	ticks   int         // tick index within the epoch

	// audit state: auditList is the regions scanned at max rate this
	// epoch, ascending, and audit[i] folds the per-tick fractions
	// auditList[i] observed (regionState.auditSlot maps back). Both are
	// sized once, by AuditFrac of the regions; auditList shares one
	// slab with perm.
	auditList []int
	audit     []auditAcc
	// scans, perm and order are scratch for CollectData, pickAudit and
	// classify; perm is sized at build, scans once, to the region
	// count, on the first tick, and order.idx on the first ranking.
	// DefaultPredict ranks in order too, by down, which it sizes the
	// same way on its first call.
	scans []memsim.ScanResult
	perm  []int
	order rateOrder
	down  []float64

	rates     []float64 // latest per-region access-rate estimates
	haveRates bool
	// cover is the adaptive coverage threshold. Access-bit estimates
	// saturate, compressing hot-region mass, so a fixed cut on estimate
	// mass over-provisions tier 1; the agent instead adjusts the cut
	// each epoch from the observed local-access fraction (the same
	// hardware counters the actuator safeguard reads), maximizing
	// remote memory usage subject to the SLO — the paper's stated
	// objective.
	cover    float64
	prevSnap memsim.Counters
	haveSnap bool
	missed   float64
	failing  bool
	startAt  time.Time
	started  bool

	// broken forces every bandit selection to the slowest arm — the
	// undersampling failure the Figure 8 experiment studies.
	broken bool
}

// validate rejects the knobs the agent slices, sizes or decays by when
// they are out of range, where each would otherwise panic in launch or
// at its first use. NaN fails every check.
func (c Config) validate() error {
	switch {
	case !(c.CoverageTarget > 0 && c.CoverageTarget <= 1):
		return fmt.Errorf("memory: CoverageTarget %v out of (0,1]", c.CoverageTarget)
	case !(c.AuditFrac >= 0 && c.AuditFrac <= 1):
		return fmt.Errorf("memory: AuditFrac %v out of [0,1]", c.AuditFrac)
	case !(c.DefaultOffloadFrac >= 0 && c.DefaultOffloadFrac <= 1):
		return fmt.Errorf("memory: DefaultOffloadFrac %v out of [0,1]", c.DefaultOffloadFrac)
	case !(c.BanditDecay > 0 && c.BanditDecay <= 1):
		return fmt.Errorf("memory: BanditDecay %v out of (0,1]", c.BanditDecay)
	case c.MitigateBatches < 0:
		return fmt.Errorf("memory: MitigateBatches %d is negative", c.MitigateBatches)
	}
	return nil
}

// init builds the Model in place, in a zero m.
func (m *Model) init(mem *memsim.Memory, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	m.mem = mem
	m.cfg = cfg
	m.rng = *stats.NewRNG(cfg.Seed)
	n := mem.Regions()
	audited := int(float64(n) * cfg.AuditFrac)
	m.regions = make([]regionState, n)
	m.audit = make([]auditAcc, audited)
	// One slab holds pickAudit's permutation and the audit list drawn
	// from it; each part's capacity is capped at its own length.
	ints := make([]int, n+audited)
	m.perm = ints[:n:n]
	m.auditList = ints[n : n : n+audited]
	m.rates = make([]float64, n)
	m.cover = cfg.CoverageTarget
	// The bank splits its per-region generators off m.rng before
	// pickAudit's first draw from it.
	if err := m.bandits.Init(mem.Regions(), NumArms, &m.rng); err != nil {
		return err
	}
	for r := range m.regions {
		m.regions[r] = regionState{phase: int32(r), auditSlot: -1}
	}
	m.pickAudit()
	return nil
}

// Break forces the slowest scan rate everywhere (broken model).
func (m *Model) Break(b bool) { m.broken = b }

// Failing reports the model's own assessment state.
func (m *Model) Failing() bool { return m.failing }

// MissedFraction returns the latest audit estimate of accesses missed
// by the model-recommended rates.
func (m *Model) MissedFraction() float64 { return m.missed }

// Rates returns the latest per-region access-rate estimates.
func (m *Model) Rates() []float64 { return m.rates }

// pickAudit draws a fresh audit set of AuditFrac of the regions.
func (m *Model) pickAudit() {
	for _, r := range m.auditList {
		m.regions[r].auditSlot = -1
	}
	m.perm = m.rng.PermInto(m.perm, len(m.regions))
	m.auditList = append(m.auditList[:0], m.perm[:len(m.audit)]...)
	sort.Ints(m.auditList)
	for i, r := range m.auditList {
		m.regions[r].auditSlot = int32(i)
		m.audit[i] = auditAcc{}
	}
}

// CollectData implements core.Model: perform every region scan due this
// tick (per-region arm schedule plus max-rate audit scans) and return
// the results.
func (m *Model) CollectData() (Tick, error) {
	now := m.mem.Snapshot().At
	if !m.started {
		m.started = true
		m.startAt = now
		m.scans = make([]memsim.ScanResult, 0, len(m.regions))
	}
	t := Tick{At: now, Scans: m.scans[:0]}
	for r := range m.regions {
		st := &m.regions[r]
		audited := st.auditSlot >= 0
		if st.cold {
			// Cold regions are excluded from scanning, but an access to
			// offloaded memory traverses the far-memory driver and is
			// immediately visible (a fault-like signal). Reheat on
			// first touch so churn cannot hide behind the exclusion.
			if last := m.mem.LastAccess(r); !last.IsZero() && now.Sub(last) < m.mem.Config().BaseTick*2 {
				st.cold = false
				st.arm = 0 // relearn from the maximum rate
			} else if !audited {
				continue
			}
		}
		every := 1 << st.arm
		if !audited && (m.ticks+int(st.phase))%every != 0 {
			continue
		}
		res, err := m.mem.Scan(r)
		if err != nil {
			// Surface the driver error; validation will discard the
			// whole sample.
			t.Err = err
			continue
		}
		t.Scans = append(t.Scans, res)
	}
	m.scans = t.Scans
	m.ticks++
	return t, nil
}

// ValidateData implements core.Model: driver errors fail the sample.
func (m *Model) ValidateData(t Tick) error {
	if t.Err != nil {
		return ErrScanDriver
	}
	return nil
}

// CommitData implements core.Model: fold scan results into the
// per-region epoch accumulators.
func (m *Model) CommitData(at time.Time, t Tick) {
	pages := float64(m.mem.PagesPerRegion())
	for _, s := range t.Scans {
		frac := float64(s.SetPages) / pages
		st := &m.regions[s.Region]
		if st.auditSlot >= 0 {
			m.audit[st.auditSlot].add(frac)
			continue
		}
		st.scans++
		st.observedFrac += frac
	}
}

// UpdateModel implements core.Model: score each region's arm, update
// its bandit, select next arms, refresh rate estimates, and run the
// audit computation.
func (m *Model) UpdateModel() {
	now := m.mem.Snapshot().At
	epochSec := float64(m.ticks) * m.mem.Config().BaseTick.Seconds()
	if epochSec <= 0 {
		return
	}
	pages := float64(m.mem.PagesPerRegion())
	tickSec := m.mem.Config().BaseTick.Seconds()

	for r := range m.regions {
		st := &m.regions[r]
		b := m.bandits.At(r)
		// Cold detection: untouched for ColdAfter (regions never
		// touched count from agent start).
		since := m.startAt
		if last := m.mem.LastAccess(r); !last.IsZero() {
			since = last
		}
		st.cold = now.Sub(since) > m.cfg.ColdAfter

		arm := int(st.arm)
		var f float64 // mean observed set fraction per scan
		audited := 0
		if st.auditSlot >= 0 {
			audited = m.audit[st.auditSlot].n
		}
		if audited > 0 {
			f = m.audit[st.auditSlot].frac(arm)
		} else if st.auditSlot < 0 && st.scans > 0 {
			f = st.observedFrac / float64(st.scans)
		}

		if st.scans > 0 || audited > 0 {
			g := perTickFrac(f, arm)
			m.rates[r] = g * pages / tickSec
			b.Reward(arm, m.wellSampled(g, arm))
		}
		b.Decay(m.cfg.BanditDecay)

		// Select the next epoch's arm.
		if m.broken {
			st.arm = NumArms - 1
		} else {
			st.arm = uint8(b.Select())
		}
		st.scans = 0
		st.observedFrac = 0
	}
	m.haveRates = true
	m.adjustCoverage()
	m.computeMissed()
	m.pickAudit()
	m.ticks = 0
}

// adjustCoverage moves the coverage cut toward the point where the
// observed local fraction sits just above the SLO: shrink tier 1 when
// comfortably above, grow it quickly when the margin erodes.
func (m *Model) adjustCoverage() {
	cur := m.mem.Snapshot()
	if !m.haveSnap {
		m.prevSnap = cur
		m.haveSnap = true
		return
	}
	remote := cur.RemoteFraction(m.prevSnap)
	m.prevSnap = cur
	slack := m.cfg.RemoteSLO - remote
	switch {
	case slack > 0.07:
		// Comfortably under the SLO: offload a little more. Shrinking
		// is deliberately slow — the epoch is 38 s and mitigations mask
		// damage, so aggressive steps overshoot before violations can
		// teach the controller otherwise.
		m.cover *= 0.97
	case slack < 0.03:
		// Margin eroding: pull back hard and immediately.
		m.cover = m.cover*1.15 + 0.03
	}
	m.cover = stats.Clamp(m.cover, 0.45, 0.95)
}

// Coverage returns the current adaptive coverage threshold.
func (m *Model) Coverage() float64 { return m.cover }

// wellSampled reports whether arm was the right rate for a region with
// per-tick touch fraction g: lossless at the chosen rate (not
// undersampled) and not losslessly replaceable by the next slower rate
// (not oversampled).
func (m *Model) wellSampled(g float64, arm int) bool {
	if g <= 0 {
		return arm == NumArms-1 // silent region: slowest arm is right
	}
	if lossRatio(g, arm) < m.cfg.LossTarget {
		return false // undersampled: saturation is eating accesses
	}
	if arm < NumArms-1 && lossRatio(g, arm+1) >= m.cfg.LossTarget {
		return false // oversampled: the slower rate would lose nothing
	}
	return true
}

// lossRatio is the fraction of distinct page touches a scanner at arm k
// observes relative to max-rate scanning, for per-tick touch fraction
// g: (1−(1−g)^2^k)/(2^k·g).
func lossRatio(g float64, arm int) float64 {
	n := float64(uint(1) << uint(arm))
	return (1 - math.Pow(1-g, n)) / (n * g)
}

// perTickFrac inverts the saturation curve: given the mean observed
// fraction f per scan at arm k, estimate the per-tick touch fraction.
func perTickFrac(f float64, arm int) float64 {
	f = stats.Clamp(f, 0, 0.95)
	n := float64(uint(1) << uint(arm))
	return 1 - math.Pow(1-f, 1/n)
}

// computeMissed estimates, from the audit regions, the fraction of
// distinct page touches the model-recommended rates would have missed.
// It runs after UpdateModel's selection, so it scores each audit
// region's newly selected arm — the rate the model recommends for the
// coming epoch — against the epoch just audited, not the arm that was
// played in it.
func (m *Model) computeMissed() {
	var atMax, atChosen float64
	for i, r := range m.auditList {
		acc := &m.audit[i]
		if acc.n == 0 {
			continue
		}
		max, chosen := acc.observed(int(m.regions[r].arm))
		atMax += max
		atChosen += chosen
	}
	if atMax <= 0 {
		m.missed = 0
		return
	}
	m.missed = stats.Clamp(1-atChosen/atMax, 0, 1)
}

// Predict implements core.Model: classify regions hot/warm/cold from
// the rate estimates. The minimal set of hottest regions covering
// CoverageTarget of estimated accesses stays in tier 1; warm and cold
// regions go to tier 2.
func (m *Model) Predict() (core.Prediction[Placement], error) {
	if !m.haveRates {
		return core.Prediction[Placement]{}, errNoRates
	}
	return core.Prediction[Placement]{Value: m.classify(m.cover)}, nil
}

// DefaultPredict implements core.Model: the conservative placement —
// only the coldest DefaultOffloadFrac of regions leave tier 1, ranked
// by hit counts downsampled to the slowest common rate so regions
// scanned at different frequencies compare fairly.
func (m *Model) DefaultPredict() core.Prediction[Placement] {
	n := len(m.regions)
	idx := slices.Grow(m.order.idx[:0], n)
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	m.down = m.downsampledRates(slices.Grow(m.down[:0], n))
	m.order = rateOrder{idx: idx, rates: m.down}
	sort.Sort((*coldOrder)(&m.order))
	k := int(float64(n) * m.cfg.DefaultOffloadFrac)
	tier2 := make([]int, k)
	copy(tier2, idx[:k])
	return core.Prediction[Placement]{Value: Placement{Tier2: tier2, Rates: m.ratesCopy()}}
}

// downsampledRates appends to out comparable hit counts, as if every
// region had been scanned at the slowest frequency (maximum
// saturation), and returns it.
func (m *Model) downsampledRates(out []float64) []float64 {
	pages := float64(m.mem.PagesPerRegion())
	tickSec := m.mem.Config().BaseTick.Seconds()
	for _, rate := range m.rates {
		g := rate * tickSec / pages
		n := float64(uint(1) << uint(NumArms-1))
		out = append(out, (1-math.Pow(1-stats.Clamp(g, 0, 0.95), n))*pages)
	}
	return out
}

func (m *Model) ratesCopy() []float64 {
	out := make([]float64, len(m.rates))
	copy(out, m.rates)
	return out
}

// classify returns the placement that keeps the hot set in tier 1.
// Regions saturated even at the maximum scan rate cannot be ranked
// against each other — the bits are all set — so every one of them is
// treated as hot; the coverage cut applies to the rankable remainder.
// Evicting a saturated region on the basis of a tied estimate risks
// offloading the hottest memory on the node.
func (m *Model) classify(coverage float64) Placement {
	n := len(m.regions)
	pages := float64(m.mem.PagesPerRegion())
	tickSec := m.mem.Config().BaseTick.Seconds()
	satRate := 0.90 * pages / tickSec

	idx := slices.Grow(m.order.idx[:0], n)
	total := 0.0
	for i := 0; i < n; i++ {
		if m.rates[i] >= satRate {
			continue // saturated: unconditionally hot
		}
		idx = append(idx, i)
		total += m.rates[i]
	}
	m.order = rateOrder{idx: idx, rates: m.rates}
	sort.Sort(&m.order)
	// idx is scratch; the placement is handed to the Actuator loop, so
	// the tail that goes to tier 2 is copied out.
	hot := 0
	if total != 0 {
		cum := 0.0
		for hot < len(idx) {
			cum += m.rates[idx[hot]]
			hot++
			if cum >= coverage*total {
				break
			}
		}
	}
	var tier2 []int
	if hot < len(idx) {
		tier2 = append(tier2, idx[hot:]...)
	}
	return Placement{Tier2: tier2, Rates: m.ratesCopy()}
}

// rateOrder sorts region indices hottest-first by rates[region]. It is
// sort.Slice's comparison as a sort.Interface over agent-owned storage,
// so a ranking allocates nothing: sort.Sort runs the same pdqsort as
// sort.Slice, and sort.Stable the same merge as sort.SliceStable, so
// each makes the same comparisons and swaps and leaves the same order,
// ties and NaNs included. classify, TakeAction, Mitigate and
// StaticPolicy.place rank with it.
type rateOrder struct {
	idx   []int
	rates []float64
}

func (o *rateOrder) Len() int           { return len(o.idx) }
func (o *rateOrder) Less(a, b int) bool { return o.rates[o.idx[a]] > o.rates[o.idx[b]] }
func (o *rateOrder) Swap(a, b int)      { o.idx[a], o.idx[b] = o.idx[b], o.idx[a] }

// coldOrder is a rateOrder ranked coldest-first: DefaultPredict's
// ranking, over the Model's own rateOrder by pointer conversion.
type coldOrder rateOrder

func (o *coldOrder) Len() int           { return len(o.idx) }
func (o *coldOrder) Less(a, b int) bool { return o.rates[o.idx[a]] < o.rates[o.idx[b]] }
func (o *coldOrder) Swap(a, b int)      { o.idx[a], o.idx[b] = o.idx[b], o.idx[a] }

// AssessModel implements core.Model: failing while the audit says the
// recommended rates miss more than MissedThreshold of accesses. A
// failing model recovers only when the missed fraction falls well
// below the threshold (hysteresis), so Thompson-sampling exploration
// noise near the boundary cannot flap the safeguard.
func (m *Model) AssessModel() bool {
	if m.failing {
		m.failing = m.missed > m.cfg.MissedThreshold*0.6
	} else {
		m.failing = m.missed > m.cfg.MissedThreshold
	}
	return !m.failing
}

// Actuator is the control half of SmartMemory. It owns prevRemote,
// sized at build, and the ranking scratch behind scr: TakeAction's
// tier-2 set and promotion list, and Mitigate's heat and migration
// list, all sized to the region count and made together at the first
// TakeAction or Mitigate, so later calls allocate nothing. The scratch
// sits behind one pointer to keep the Agent below its 2,048-byte
// allocation size class (TestAgentSizeClass).
type Actuator struct {
	mem *memsim.Memory
	cfg Config

	prev      memsim.Counters
	havePrev  bool
	lastRates []float64
	// prevRemote snapshots per-region remote access counters so
	// Mitigate can rank second-tier regions by observed remote traffic
	// — the most direct "hottest batches in the second tier" signal.
	prevRemote []float64
	scr        *actuatorScratch
}

// actuatorScratch is the Actuator's per-region ranking storage.
type actuatorScratch struct {
	order   rateOrder // the promotion or migration list, and its key
	inTier2 []bool    // TakeAction: the placement's tier-2 set
	heat    []float64 // Mitigate: each tier-2 region's heat
}

// scratch returns the ranking scratch, making it on first use.
func (a *Actuator) scratch() *actuatorScratch {
	if a.scr == nil {
		n := a.mem.Regions()
		a.scr = &actuatorScratch{
			order:   rateOrder{idx: make([]int, 0, n)},
			inTier2: make([]bool, n),
			heat:    make([]float64, n),
		}
	}
	return a.scr
}

// init builds the Actuator in place, in a zero a.
func (a *Actuator) init(mem *memsim.Memory, cfg Config) {
	a.mem = mem
	a.cfg = cfg
	a.prevRemote = make([]float64, mem.Regions())
}

// TakeAction implements core.Actuator: apply the placement. A nil
// prediction needs no action — pages safely stay where they are (§5.3
// "Handling stale predictions").
func (a *Actuator) TakeAction(pred *core.Prediction[Placement]) {
	if pred == nil {
		return
	}
	p := pred.Value
	a.lastRates = p.Rates
	sc := a.scratch()
	inTier2 := sc.inTier2
	clear(inTier2)
	// Demotions first to free tier-1 capacity, then promotions,
	// hottest first, as capacity allows. A demotion fails only for a
	// region out of range, which is then in no tier-2 set.
	for _, r := range p.Tier2 {
		if a.mem.SetTier(r, false) == nil {
			inTier2[r] = true
		}
	}
	promote := sc.order.idx[:0]
	for r := 0; r < a.mem.Regions(); r++ {
		if !inTier2[r] && !a.mem.InTier1(r) {
			promote = append(promote, r)
		}
	}
	sc.order = rateOrder{idx: promote, rates: p.Rates}
	if p.Rates != nil {
		sort.Sort(&sc.order)
	}
	for _, r := range promote {
		if err := a.mem.SetTier(r, true); err != nil {
			break // tier 1 full; hotter regions already in
		}
	}
}

// AssessPerformance implements core.Actuator: the remote-access
// fraction since the previous check must stay within the SLO.
func (a *Actuator) AssessPerformance() bool {
	cur := a.mem.Snapshot()
	if !a.havePrev {
		a.prev = cur
		a.havePrev = true
		return true
	}
	frac := cur.RemoteFraction(a.prev)
	total := (cur.Local + cur.Remote) - (a.prev.Local + a.prev.Remote)
	a.prev = cur
	if total < a.cfg.MinAssessAccesses {
		return true
	}
	return frac <= a.cfg.RemoteSLO
}

// Mitigate implements core.Actuator: immediately migrate the hottest
// MitigateBatches second-tier regions back to tier 1, hottest first,
// as far as capacity allows. Hotness comes from the per-region remote
// access counters the far-memory driver exposes — the live signal —
// with the model's rate estimates as tie-breaker.
func (a *Actuator) Mitigate() {
	sc := a.scratch()
	heat := sc.heat
	tier2 := sc.order.idx[:0]
	for r := 0; r < a.mem.Regions(); r++ {
		if !a.mem.InTier1(r) {
			tier2 = append(tier2, r)
			heat[r] = a.mem.RemoteAccesses(r) - a.prevRemote[r]
			if heat[r] == 0 && a.lastRates != nil {
				heat[r] = a.lastRates[r] * 1e-9
			}
		}
	}
	sc.order = rateOrder{idx: tier2, rates: heat}
	sort.Sort(&sc.order)
	if len(tier2) > a.cfg.MitigateBatches {
		tier2 = tier2[:a.cfg.MitigateBatches]
	}
	for _, r := range tier2 {
		a.prevRemote[r] = a.mem.RemoteAccesses(r)
		if err := a.mem.SetTier(r, true); err != nil {
			break
		}
	}
}

// CleanUp implements core.Actuator: restore all regions to tier 1
// until done or tier 1 is full. Idempotent.
func (a *Actuator) CleanUp() {
	for r := 0; r < a.mem.Regions(); r++ {
		if !a.mem.InTier1(r) {
			if err := a.mem.SetTier(r, true); err != nil {
				return
			}
		}
	}
}
