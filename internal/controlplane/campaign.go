package controlplane

import (
	"fmt"
	"reflect"
	"time"

	"sol/internal/fleet"
	"sol/internal/obs"
	"sol/internal/shard"
	"sol/internal/stats"
	"sol/internal/taxonomy"
)

// Run executes one control-plane run on the shard conductor: it builds
// the fleet, advances it to cfg.Fleet.Duration on the epoch grid of
// cfg.Interval, and — if a campaign is configured — converts wave
// cohorts, judges the health gate after each soak, and rolls the cohort
// back to baseline on a failed gate. The fleet always runs to the full
// horizon, so a rolled-back run's final report shows the fleet's
// post-rollback health, directly comparable to a no-campaign run of the
// same config.
//
// The schedule is span-based: while a wave soaks, each shard steps its
// targeted nodes at cfg.Interval (shard-local observation) and free-runs
// the rest; the fleet aligns only at gate boundaries — every SoakEpochs
// epochs while the campaign is live, every epoch while a quorum
// abstention has the soak extended — and once the campaign settles, the
// remainder free-runs (in single epochs while deferred rollback deploys
// are still retrying on the epoch grid, then in one span). The final
// epoch is truncated so the run lands exactly on the horizon.
// cfg.Fleet.Shards is a pure scaling knob: 0 means one shard, and more
// shards change the cohort partitioning (every shard canaries locally)
// but never the state machine.
//
// Determinism contract: identical configs produce byte-identical wave
// traces and reports (Report.String), whatever the worker-pool width.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	co, err := fleet.NewCoordinator(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	defer co.StopAll()

	horizon, interval := cfg.Fleet.Duration, cfg.Interval
	rep := &Report{
		Nodes:    cfg.Fleet.Nodes,
		Interval: interval,
		Shards:   co.Shards(),
	}
	if cfg.Campaign == nil {
		co.StepFor(horizon)
		if err := co.LifecycleErr(); err != nil {
			return nil, err
		}
		rep.Fleet = co.Report()
		return rep, nil
	}

	st, err := newCampaign(cfg.Campaign, co, cfg.Journal, cfg.Replay)
	if err != nil {
		return nil, err
	}
	// A campaign for a kind no node runs would pass every gate
	// vacuously and report "completed"; refuse it instead.
	for _, tg := range st.targets {
		if !kindPresent(co, tg.candidate.Kind) {
			return nil, fmt.Errorf("controlplane: campaign %q targets kind %q, but no node runs it",
				cfg.Campaign.Name, tg.candidate.Kind)
		}
	}
	// The canary converts in every shard at the virtual start instant,
	// before any time passes: epoch 0 in the trace.
	if err := st.convertNextWave(0); err != nil {
		return nil, err
	}

	K := shard.Epochs(horizon, interval)
	epoch := 0
	for epoch < K && !st.done {
		gate := epoch + st.soak
		judge := gate <= K
		if !judge {
			// The horizon ends mid-soak: run the remaining epochs
			// (keeping observation fresh) but there is no boundary left
			// to judge at.
			gate = K
		}
		st.spanFrom = shard.EpochTime(epoch, horizon, interval)
		st.spanUntil = shard.EpochTime(gate, horizon, interval)
		err := co.Span(shard.Span{
			Until:    st.spanUntil,
			Interval: interval,
			Stepped:  st.stepped,
			OnEpoch:  st.onEpoch,
		})
		if err != nil {
			return nil, err
		}
		epoch = gate
		if judge {
			if err := st.judge(epoch); err != nil {
				return nil, err
			}
		}
	}
	// Campaign settled (or horizon mid-campaign): single epochs while
	// deferred deploys drain on the epoch grid, then free-run the rest.
	for ; epoch < K && len(st.pending) > 0; epoch++ {
		if err := co.Span(shard.Span{Until: shard.EpochTime(epoch+1, horizon, interval)}); err != nil {
			return nil, err
		}
		if err := st.processPending(epoch + 1); err != nil {
			return nil, err
		}
	}
	if err := co.Span(shard.Span{Until: horizon}); err != nil {
		return nil, err
	}

	if err := st.replayDone(); err != nil {
		return nil, err
	}
	st.fill(rep)
	rep.Fleet = co.Report()
	return rep, nil
}

// memberKey identifies one cohort agent across epochs.
type memberKey struct {
	node int
	name string
}

// shardSeed salts the campaign's cohort-shuffle seed per shard. Shard
// 0 gets no salt, so a one-shard campaign shuffles the whole fleet with
// the campaign seed alone — the order the scenario golden pins. The odd
// multiplier is the 64-bit golden ratio, the usual stream-splitting
// constant.
func shardSeed(campaignSeed uint64, s int) uint64 {
	return campaignSeed ^ 0xc0a1e5ce ^ (uint64(s) * 0x9e3779b97f4a7c15)
}

// shardCohort is one shard's slice of a campaign: its own
// deterministic node shuffle, targeting watermark, deadline
// bookkeeping, and the shard-local cohort health of the last epoch.
// During a span it is owned by the shard's goroutine; between spans
// (fleet aligned) the conductor-side state machine reads and writes
// it. Each shard canaries locally — every wave targets at least one
// node per shard — so a candidate is exposed to every partition's
// workload mix from the first wave.
type shardCohort struct {
	// order is the shard's nodes, shuffled; nodes are targeted in this
	// order, so order[:targeted] is the cohort the campaign has tried to
	// convert.
	order    []int
	targeted int
	// prev holds each cohort agent's action count at the last epoch,
	// for per-epoch deadline-compliance deltas.
	prev     map[memberKey]uint64
	scratch  []fleet.MemberHealth // reused by the per-epoch cohort poll
	stepList []int                // reused fault-filtered stepped set
	health   CohortHealth         // shard-local cohort health at the last epoch
}

// pendingOp is one deferred deploy: a conversion or revert that found
// its node down and waits out a deterministic exponential backoff
// (retry after 1 epoch, then 2 more, then 4, ...) for up to
// Campaign.DeployRetries attempts. sh is the owning shard's index, for
// the per-shard deadline bookkeeping the deploy resets.
type pendingOp struct {
	node     int
	sh       int
	revert   bool
	attempts int
	next     int // epoch of the next attempt
}

// campaign executes a Campaign over the fleet's shards: cohorts
// shuffle and convert per shard, soak observation is shard-local (only
// targeted nodes advance epoch by epoch; the rest of each shard
// free-runs), and the fleet aligns only at gate boundaries, where one
// shared gate judges the union of the shard healths and a failed gate
// fans the rollback out shard by shard.
type campaign struct {
	camp *Campaign
	co   *fleet.Coordinator
	// targets are the compiled per-kind deploy operations; kinds is
	// the membership set cohort health aggregates over.
	targets []compiledTarget
	kinds   map[string]bool
	shards  []shardCohort
	// conv[n] is true while node n actually runs the candidate — under
	// lifecycle faults a targeted node can be unconverted (down at
	// deploy) and pending holds the deferred deploys being retried.
	conv    []bool
	pending []pendingOp
	soak    int // epochs until the next gate boundary
	// spanFrom/spanUntil bound the span being launched (elapsed virtual
	// time); written on the conductor goroutine before each Span, read
	// by the shards' stepped-set filters during it.
	spanFrom  time.Duration
	spanUntil time.Duration

	// The wave machine and verdict.
	wave         int // index of the next wave to convert
	converted    int // nodes currently targeted for conversion
	maxConverted int
	done         bool
	completed    bool
	rolledBack   bool
	halted       bool
	extends      int // consecutive quorum abstentions for the current wave
	failure      taxonomy.FailureClass
	failureWave  int
	reason       string
	trace        []WaveEvent

	// Journal/replay plumbing (see Config.Journal, Config.Replay).
	// Every trace event passes through emit: while replaying a killed
	// run's journal the re-simulated event is verified (==) against the
	// recorded prefix; past the prefix, events append to the journal.
	// jerr latches the first divergence or append failure.
	journal  *Journal
	replay   []WaveEvent
	replayed int
	jerr     error

	// Wave-profile recording (Report.WaveProfiles), populated only when
	// the fleet runs with Config.Fleet.Profile. Profiles ride beside
	// the trace, never in it: WaveEvent stays plain comparable data for
	// the journal's == verification, and wall times could never replay
	// byte-identically anyway.
	waveProfiles []WaveProfile
	lastProf     *obs.Profile

	// rec is the fleet's probe (nil when profiling and tracing are
	// off): every wave decision passing through emit — including
	// replayed ones, which is what makes a resumed run's trace
	// byte-identical in sim-time fields — lands on its conductor track,
	// as do deferred and retried deploys, and settled waves read its
	// profile. Every probe method is nil-safe.
	rec *obs.Probe
}

func newCampaign(camp *Campaign, co *fleet.Coordinator, journal *Journal, replay []WaveEvent) (*campaign, error) {
	targets, err := camp.compile()
	if err != nil {
		return nil, err
	}
	kinds := make(map[string]bool, len(targets))
	for _, tg := range targets {
		kinds[tg.candidate.Kind] = true
	}
	con := co.Conductor()
	shards := make([]shardCohort, con.Shards())
	for s := range shards {
		lo, hi := con.Cells(s)
		order := stats.NewRNG(shardSeed(camp.Seed, s)).Perm(hi - lo)
		for i := range order {
			order[i] += lo
		}
		shards[s] = shardCohort{order: order, prev: make(map[memberKey]uint64)}
	}
	return &campaign{
		camp:    camp,
		co:      co,
		targets: targets,
		kinds:   kinds,
		shards:  shards,
		conv:    make([]bool, co.Nodes()),
		journal: journal,
		replay:  replay,
		rec:     co.Probe(),
	}, nil
}

// kindPresent reports whether any node runs a member of kind.
func kindPresent(co *fleet.Coordinator, kind string) bool {
	for i := 0; i < co.Nodes(); i++ {
		for _, m := range co.Supervisor(i).Members() {
			if m.Kind == kind {
				return true
			}
		}
	}
	return false
}

// recordWaveProfile snapshots the probe's profile at a settled wave
// decision (pass/complete/rollback/halt) and appends the delta since
// the previous settlement as the wave's profile. No-op when profiling
// is off. Runs with the fleet aligned — the only instant a profile
// snapshot is coherent.
func (c *campaign) recordWaveProfile(epoch int) {
	if !c.rec.Profiling() {
		return
	}
	cur := c.rec.Profile()
	c.waveProfiles = append(c.waveProfiles, WaveProfile{
		Wave: c.wave, Epoch: epoch, Profile: *obs.Delta(cur, c.lastProf),
	})
	c.lastProf = cur
}

// emit is the single choke point every wave event passes through.
func (c *campaign) emit(ev WaveEvent) {
	c.trace = append(c.trace, ev)
	c.rec.Decision(actionEvent(ev.Action), int64(ev.At), ev.Wave, ev.Epoch, int64(ev.Converted))
	if c.jerr != nil {
		return
	}
	if c.replayed < len(c.replay) {
		if want := c.replay[c.replayed]; ev != want {
			c.jerr = fmt.Errorf("controlplane: journal diverges at entry %d (%s, wave %d, epoch %d): %s — the journal does not match this configuration",
				c.replayed, want.Action, want.Wave, want.Epoch, fieldDiff("", reflect.ValueOf(want), reflect.ValueOf(ev)))
			return
		}
		c.replayed++
		return
	}
	if c.journal != nil {
		if err := c.journal.Append(ev); err != nil {
			c.jerr = err
		}
	}
}

// fieldDiff names the first field in which two values of one struct
// type differ, descending into nested structs ("Health.NodesDown"),
// with the recorded value a and the reproduced value b.
func fieldDiff(prefix string, a, b reflect.Value) string {
	for i := 0; i < a.NumField(); i++ {
		name := prefix + a.Type().Field(i).Name
		fa, fb := a.Field(i), b.Field(i)
		if fa.Kind() == reflect.Struct {
			if d := fieldDiff(name+".", fa, fb); d != "" {
				return d
			}
			continue
		}
		if !fa.Equal(fb) {
			return fmt.Sprintf("recorded %s %v, this run produced %v", name, fa, fb)
		}
	}
	return ""
}

// replayDone verifies the whole recorded prefix was consumed — a
// journal with more events than the run reproduced belongs to a
// different configuration (or a longer horizon).
func (c *campaign) replayDone() error {
	if c.jerr == nil && c.replayed < len(c.replay) {
		return fmt.Errorf("controlplane: journal has %d recorded events but this run produced only %d — the journal does not match this configuration",
			len(c.replay), c.replayed)
	}
	return c.jerr
}

// beginWave records a conversion: total is the whole targeted cohort
// after the new wave's slices deployed (or deferred, for down nodes).
func (c *campaign) beginWave(epoch int, at time.Duration, total int) {
	c.converted = total
	if total > c.maxConverted {
		c.maxConverted = total
	}
	c.wave++
	c.extends = 0
	c.emit(WaveEvent{
		Epoch: epoch, At: at, Wave: c.wave,
		Action: ActionConvert, Converted: c.converted,
	})
}

// failWave records a tripped gate. judge reverts the cohort next and
// then calls finishRollback — the deploys happen between the two trace
// events, exactly when the fleet is quiescent at the barrier.
func (c *campaign) failWave(epoch int, at time.Duration, h CohortHealth, res GateResult) {
	c.emit(WaveEvent{
		Epoch: epoch, At: at, Wave: c.wave,
		Action: ActionFail, Converted: c.converted,
		Health: h, Reason: res.Reason, Class: res.Class,
	})
}

// finishRollback records the completed revert and settles the verdict.
func (c *campaign) finishRollback(epoch int, at time.Duration, res GateResult) {
	c.emit(WaveEvent{
		Epoch: epoch, At: at, Wave: c.wave,
		Action: ActionRollback, Converted: c.converted, Class: res.Class,
	})
	c.rolledBack = true
	c.failure = res.Class
	c.failureWave = c.wave
	c.reason = res.Reason
	c.converted = 0
	c.done = true
}

// passWave records a passed gate: the final wave completes the
// campaign; any earlier wave records a pass and leaves judge to convert
// the next wave.
func (c *campaign) passWave(epoch int, at time.Duration, h CohortHealth) {
	if c.wave == len(c.camp.Waves) {
		c.emit(WaveEvent{
			Epoch: epoch, At: at, Wave: c.wave,
			Action: ActionComplete, Converted: c.converted, Health: h,
		})
		c.completed = true
		c.done = true
		return
	}
	c.emit(WaveEvent{
		Epoch: epoch, At: at, Wave: c.wave,
		Action: ActionPass, Converted: c.converted, Health: h,
	})
}

// abstainWave records a quorum abstention: too few cohort nodes are
// reporting to judge the gate, so the soak extends one more epoch.
func (c *campaign) abstainWave(epoch int, at time.Duration, h CohortHealth, reason string) {
	c.extends++
	c.emit(WaveEvent{
		Epoch: epoch, At: at, Wave: c.wave,
		Action: ActionAbstain, Converted: c.converted,
		Health: h, Reason: reason,
	})
}

// haltWave records a tolerate-down halt: the campaign stops with the
// cohort frozen in place (no revert — the down nodes could not be
// reverted anyway, and freezing preserves the evidence).
func (c *campaign) haltWave(epoch int, at time.Duration, h CohortHealth, reason string) {
	c.emit(WaveEvent{
		Epoch: epoch, At: at, Wave: c.wave,
		Action: ActionHalt, Converted: c.converted,
		Health: h, Reason: reason, Class: taxonomy.FailureEnvironment,
	})
	c.halted = true
	c.failure = taxonomy.FailureEnvironment
	c.failureWave = c.wave
	c.reason = reason
	c.done = true
}

// gateDecision is judgeGate's verdict on one gate boundary.
type gateDecision int

const (
	gateAdvance  gateDecision = iota // gate passed: next wave (or completed)
	gateRollback                     // gate failed: revert the cohort
	gateExtend                       // quorum abstained: soak one more epoch
	gateHalt                         // tolerate-down tripped: freeze and stop
)

// judgeGate runs the full degradation-aware gate policy at one
// boundary, in severity order: the tolerate-down policy first (down
// converted nodes are a hard stop), then quorum (don't judge a cohort
// that isn't reporting — extend the soak instead of rolling back a
// blameless variant on missing evidence), then the health gate
// itself. The trace event for the decision is emitted before judgeGate
// returns.
func (c *campaign) judgeGate(epoch int, at time.Duration, h CohortHealth) (gateDecision, GateResult) {
	if tol := c.camp.TolerateDown; tol >= 0 && h.NodesDown > tol {
		reason := fmt.Sprintf("%d cohort nodes down > tolerate-down %d", h.NodesDown, tol)
		c.haltWave(epoch, at, h, reason)
		return gateHalt, GateResult{Reason: reason, Class: taxonomy.FailureEnvironment}
	}
	if h.NodesTotal > 0 && h.NodesReporting < h.NodesTotal {
		q := c.camp.quorum()
		frac := float64(h.NodesReporting) / float64(h.NodesTotal)
		// An empty reporting set is never judged, whatever the extend
		// budget: the gate would pass vacuously and complete a campaign
		// no surviving node is running.
		if frac < q && (c.extends < c.camp.MaxSoakExtends || h.NodesReporting == 0) {
			c.abstainWave(epoch, at, h, fmt.Sprintf("quorum not met: %d/%d cohort nodes reporting, need %.0f%%",
				h.NodesReporting, h.NodesTotal, q*100))
			return gateExtend, GateResult{OK: true}
		}
	}
	res := c.camp.Gate.Check(h)
	if !res.OK {
		c.failWave(epoch, at, h, res)
		return gateRollback, res
	}
	c.passWave(epoch, at, h)
	return gateAdvance, res
}

// fill copies the campaign outcome into the run report and reconciles
// its cohort accounting with what actually deployed: after a rollback,
// nodes still on the candidate are ones the revert could not reach —
// stranded; otherwise targeted nodes not on it are unconverted.
func (c *campaign) fill(rep *Report) {
	rep.Campaign = c.camp.Name
	rep.Kinds = c.camp.Kinds()
	rep.Waves = c.camp.Waves
	rep.Trace = c.trace
	rep.Completed = c.completed
	rep.RolledBack = c.rolledBack
	rep.Halted = c.halted
	rep.Failure = c.failure
	rep.FailureWave = c.failureWave
	rep.FailureReason = c.reason
	rep.MaxConverted = c.maxConverted
	rep.WaveProfiles = c.waveProfiles

	onCandidate := 0
	for _, on := range c.conv {
		if on {
			onCandidate++
		}
	}
	if c.rolledBack {
		rep.Stranded = onCandidate
		return
	}
	targeted := 0
	for sh := range c.shards {
		targeted += c.shards[sh].targeted
	}
	rep.Converted = onCandidate
	rep.Unconverted = targeted - onCandidate
}

// stepped is the conductor's per-shard stepped-cell set: the shard's
// targeted cohort, which needs epoch-by-epoch observation while it
// soaks. Unconverted nodes free-run to the next alignment. Under a
// lifecycle plan, down nodes with no transition scheduled inside the
// span are excluded too: their state is constant, so the per-epoch
// poll can read them safely while their clocks free-run. Down nodes
// that do transition mid-span stay stepped so the change lands on the
// shared epoch grid.
func (c *campaign) stepped(sh int) []int {
	sc := &c.shards[sh]
	base := sc.order[:sc.targeted]
	if !c.co.HasLifecycle() {
		return base
	}
	sc.stepList = sc.stepList[:0]
	for _, n := range base {
		if c.co.NodeDown(n) && !c.co.NodeTransitions(n, c.spanFrom, c.spanUntil) {
			continue
		}
		sc.stepList = append(sc.stepList, n)
	}
	return sc.stepList
}

// onEpoch is the shard-local soak observer: at every shard epoch it
// recomputes the shard's cohort health (keeping the per-agent deadline
// deltas fresh) on the shard's own goroutine. Nothing fleet-wide is
// touched — this is the "no global lock in steady state" half of the
// design.
func (c *campaign) onEpoch(sh, _ int, _, step time.Duration) {
	sc := &c.shards[sh]
	sc.health = cohortHealthOver(c.co, c.kinds, sc.order[:sc.targeted], c.conv, sc.prev, step, &sc.scratch)
}

// deploy converts (or, with revert, rolls back) every member of every
// target kind on node, resetting each member's deadline bookkeeping in
// its shard. All targets convert at the same barrier — a multi-kind
// campaign's cohort is never half-deployed.
func (c *campaign) deploy(sh, node int, revert bool) error {
	sup := c.co.Supervisor(node)
	for _, tg := range c.targets {
		a := tg.candidate
		if revert {
			a = tg.baseline
		}
		for _, m := range sup.Members() {
			if m.Kind != a.Kind {
				continue
			}
			if err := sup.ReplaceSpec(m.Name, a); err != nil {
				return err
			}
			c.shards[sh].prev[memberKey{node, m.Name}] = 0
		}
	}
	c.conv[node] = !revert
	return nil
}

// tryDeploy deploys to a node of shard sh if it is up, or defers the
// deploy into the pending retry queue (when DeployRetries allows) if
// it is down.
func (c *campaign) tryDeploy(sh, node int, revert bool, epoch int) error {
	if c.co.NodeDown(node) {
		if c.camp.DeployRetries > 0 {
			c.pending = append(c.pending, pendingOp{node: node, sh: sh, revert: revert, next: epoch + 1})
			c.rec.Deploy(obs.EvDeployDefer, int64(c.co.Elapsed()), epoch, node, revertArg(revert))
		}
		return nil
	}
	return c.deploy(sh, node, revert)
}

// processPending retries deferred deploys that are due at epoch: a
// recovered node gets its deploy, a still-down node backs off
// exponentially until its attempts run out. In-place filter; the
// queue keeps arrival order, so retries are deterministic.
func (c *campaign) processPending(epoch int) error {
	keep := c.pending[:0]
	for _, p := range c.pending {
		if epoch < p.next {
			keep = append(keep, p)
			continue
		}
		if c.co.NodeDown(p.node) {
			p.attempts++
			if p.attempts < c.camp.DeployRetries {
				p.next = epoch + (1 << p.attempts)
				keep = append(keep, p)
			}
			continue
		}
		if err := c.deploy(p.sh, p.node, p.revert); err != nil {
			return err
		}
		c.rec.Deploy(obs.EvDeployRetry, int64(c.co.Elapsed()), epoch, p.node, int64(p.attempts+1))
	}
	c.pending = keep
	return nil
}

// revertArg encodes a deploy event's direction: 1 for a revert, 0 for
// a conversion.
func revertArg(revert bool) int64 {
	if revert {
		return 1
	}
	return 0
}

// convertNextWave targets the next wave's slice in every shard, arms
// the soak counter and advances the wave counter. Each shard targets
// the ceiling of the wave fraction over its own node count (at least
// one node), in its own shuffle order; down nodes defer into the retry
// queue.
func (c *campaign) convertNextWave(epoch int) error {
	frac := c.camp.Waves[c.wave]
	total := 0
	for sh := range c.shards {
		sc := &c.shards[sh]
		target := cohortSize(frac, len(sc.order))
		for i := sc.targeted; i < target; i++ {
			if err := c.tryDeploy(sh, sc.order[i], false, epoch); err != nil {
				return err
			}
		}
		sc.targeted = target
		total += target
	}
	c.soak = c.camp.SoakEpochs
	c.beginWave(epoch, c.co.Elapsed(), total)
	return c.jerr
}

// judge runs at a gate boundary with the fleet aligned: deferred
// deploys that are due retry first, then the shard healths from the
// soak's final epoch are summed into the union cohort health and the
// judgeGate policy decides — advance, extend the soak, halt, or fan the
// rollback out shard by shard.
func (c *campaign) judge(epoch int) error {
	if err := c.processPending(epoch); err != nil {
		return err
	}
	var h CohortHealth
	for sh := range c.shards {
		h.add(c.shards[sh].health)
	}
	at := c.co.Elapsed()
	dec, res := c.judgeGate(epoch, at, h)
	if dec != gateExtend {
		c.recordWaveProfile(epoch)
	}
	switch dec {
	case gateExtend:
		c.soak = 1
	case gateHalt:
		// Frozen in place: no deploys, pending retries dropped.
		c.pending = c.pending[:0]
	case gateRollback:
		c.pending = c.pending[:0] // conversions no longer wanted
		for sh := range c.shards {
			sc := &c.shards[sh]
			for _, n := range sc.order[:sc.targeted] {
				if !c.conv[n] {
					continue
				}
				if err := c.tryDeploy(sh, n, true, epoch); err != nil {
					return err
				}
			}
		}
		c.finishRollback(epoch, at, res)
	case gateAdvance:
		if !c.done {
			return c.convertNextWave(epoch)
		}
	}
	return c.jerr
}

// cohortHealthOver aggregates every target kind over one shard's
// targeted nodes at the current epoch and updates the per-agent action
// bookkeeping in prev. step is the last epoch's length, for the
// deadline floor. The gate judges the shard healths summed — the union
// cohort: in a multi-kind campaign, one kind's safeguard trips fail the
// wave for all of them. scratch is the caller's reusable member-health
// buffer, so per-epoch cohort polling allocates nothing in steady
// state.
//
// Node attendance: down nodes contribute no agent evidence (their
// stacks are dead, their counters frozen at the crash — polling them
// would bill the crash to the variant), dark nodes likewise (their
// reports are unavailable, not their agents), and nodes whose
// conversion is still deferred (conv[n] false) have nothing of the
// candidate to report. All three are counted so the quorum and
// tolerate-down policies can judge attendance itself.
func cohortHealthOver(co *fleet.Coordinator, kinds map[string]bool, nodes []int, conv []bool, prev map[memberKey]uint64, step time.Duration, scratch *[]fleet.MemberHealth) CohortHealth {
	var h CohortHealth
	for _, nodeIdx := range nodes {
		h.NodesTotal++
		if co.NodeDown(nodeIdx) {
			h.NodesDown++
			continue
		}
		if !conv[nodeIdx] {
			continue
		}
		if co.NodeDark(nodeIdx) {
			h.NodesDark++
			continue
		}
		h.NodesReporting++
		*scratch = co.Supervisor(nodeIdx).HealthDetailInto(*scratch)
		for _, mh := range *scratch {
			if !kinds[mh.Kind] {
				continue
			}
			hh := mh.Health
			h.Agents++
			if hh.Halted {
				h.Halted++
			}
			if hh.ModelFailing {
				h.ModelFailing++
			}
			h.ActuatorTriggers += hh.ActuatorSafeguardTriggers
			h.ModelTriggers += hh.ModelSafeguardTriggers
			h.Mitigations += hh.Mitigations
			h.ScheduleViolations += hh.ScheduleViolations
			h.DataRejected += hh.DataRejected
			h.DataCollected += hh.DataCollected

			key := memberKey{nodeIdx, mh.Name}
			last := prev[key]
			prev[key] = hh.Actions
			// Same eligibility rule as the fleet report: a configured
			// deadline no longer than the epoch, and never halted —
			// halting is the sanctioned way to stop acting. A member
			// whose counter went backwards was relaunched by a node
			// restart mid-epoch; re-baseline and skip this epoch's
			// judgement rather than computing a wrapped delta.
			if hh.Actions >= last &&
				mh.MaxActuationDelay > 0 && step >= mh.MaxActuationDelay &&
				!hh.Halted && hh.ActuatorSafeguardTriggers == 0 {
				h.DeadlineEligible++
				if hh.Actions-last >= uint64(step/mh.MaxActuationDelay) {
					h.DeadlineMet++
				}
			}
		}
	}
	return h
}
