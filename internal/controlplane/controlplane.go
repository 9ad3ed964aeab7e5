// Package controlplane is the fleet rollout controller: it drives a
// simulated SOL fleet in lockstep epochs, aggregates per-kind agent
// health between epochs, and executes rollout campaigns — a candidate
// agent variant deployed in waves (1% → 5% → 25% → 100% of nodes),
// where each wave proceeds only while the already-converted cohort
// passes a health gate, and a failed gate triggers automatic rollback
// of the whole cohort to the baseline variant.
//
// SOL (the paper) makes a single node's learning agent safe through
// decoupled loops and safeguards. At fleet scale the dominant risk is
// different: shipping one bad model, schedule, or config to a million
// nodes at once. The control plane applies the same blast-radius
// discipline one level up — a bad variant is caught while it owns 1%
// of the fleet, named with the paper's §3.2 failure-condition class it
// tripped on (internal/taxonomy), and reverted by the one operation
// SOL guarantees is always safe: CleanUp plus relaunch of the
// baseline.
//
// Everything is deterministic: the same campaign config produces a
// byte-identical wave trace and final report, run after run, whatever
// the worker-pool width.
package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"sol/internal/fleet"
	"sol/internal/spec"
	"sol/internal/taxonomy"
)

// Campaign describes one rollout declaratively: which agent variants
// are being redeployed (one Target per kind, converted together), the
// wave plan, and the shared health gate every wave's converted cohort
// must clear. A Campaign is plain data — it serializes to JSON, so
// rollouts can be stored, diffed, and loaded from a manifest
// (cmd/solrollout -config) by operators who never wrote the agents.
//
//sollint:wire ManifestVersion
type Campaign struct {
	// Name labels the campaign in traces and reports.
	Name string `json:"name"`
	// Targets are the redeployments this campaign coordinates. Every
	// target kind on a converted node is replaced in the same lockstep
	// barrier, and the shared Gate judges their union cohort — so a
	// schedule change across co-located agents advances or rolls back
	// as one unit.
	Targets []Target `json:"targets"`
	// Waves are the cumulative fleet fractions of the rollout plan,
	// strictly increasing in (0, 1]; e.g. 0.01, 0.05, 0.25, 1. Each
	// wave's cohort size is the ceiling of fraction × nodes, so a
	// canary wave converts at least one node. Nil means DefaultWaves
	// when loaded from JSON.
	Waves []float64 `json:"waves,omitempty"`
	// SoakEpochs is how many lockstep epochs a freshly converted wave
	// soaks before its gate is judged. Must be >= 1.
	SoakEpochs int `json:"soak_epochs,omitempty"`
	// Gate is the health bar the converted cohort (all target kinds
	// pooled) must clear for the next wave to proceed.
	Gate Gate `json:"gate"`
	// Seed drives the deterministic shuffle that orders nodes into
	// waves, so the canary cohort is not just the lowest node indices.
	Seed uint64 `json:"seed,omitempty"`

	// Robustness policy (manifest schema version 2): how the campaign
	// behaves when nodes crash, flap, or go dark under it. The zero
	// values reproduce the version-1 behavior exactly — judge on full
	// attendance, never retry, halt on the first down cohort node.

	// Quorum is the fraction of the targeted cohort's nodes that must
	// be reporting health for a gate to be judged; below it the soak is
	// extended instead (see MaxSoakExtends), so a crash storm doesn't
	// roll back a blameless variant on missing evidence. 0 means 1 —
	// every cohort node must report.
	Quorum float64 `json:"quorum,omitempty"`
	// MaxSoakExtends bounds how many consecutive epochs a wave's gate
	// may abstain for lack of quorum before judging on whatever
	// evidence is in hand. A cohort with zero reporting nodes is never
	// judged (a vacuous pass would complete a campaign nobody ran).
	MaxSoakExtends int `json:"max_soak_extends,omitempty"`
	// DeployRetries bounds how many times a conversion or rollback
	// deploy to a down node is retried, with deterministic exponential
	// backoff (1, 2, 4, ... epochs between attempts). 0 means no
	// retries: a down node is skipped and stays on whatever it runs.
	DeployRetries int `json:"deploy_retries,omitempty"`
	// TolerateDown is how many down cohort nodes the campaign tolerates
	// at a gate before halting — converted nodes dying under the
	// candidate are suspicious, and halting freezes the blast radius
	// for a human. -1 tolerates any number (the crash-storm posture:
	// trust the quorum gate); 0, the default, halts on the first.
	TolerateDown int `json:"tolerate_down,omitempty"`
}

// quorum returns the effective reporting-fraction floor (Quorum,
// defaulted to 1).
func (c *Campaign) quorum() float64 {
	if c.Quorum == 0 {
		return 1
	}
	return c.Quorum
}

// robust reports whether any robustness-policy field departs from the
// version-1 defaults; manifests using them must declare schema
// version >= 2.
func (c *Campaign) robust() bool {
	return c.Quorum != 0 || c.MaxSoakExtends != 0 || c.DeployRetries != 0 || c.TolerateDown != 0
}

// DefaultWaves returns the canonical rollout plan: 1% → 5% → 25% →
// 100% of the fleet.
func DefaultWaves() []float64 { return []float64{0.01, 0.05, 0.25, 1} }

// DefaultSoakEpochs is the canonical soak before each wave's gate.
const DefaultSoakEpochs = 2

// UnmarshalJSON decodes a campaign with manifest defaults — absent
// waves, soak, and gate mean DefaultWaves, DefaultSoakEpochs, and
// DefaultGate, not the zero values (a zero Gate tolerates nothing) —
// and rejects unknown fields, so a typo in a stored manifest fails
// loudly instead of silently deploying the wrong campaign.
func (c *Campaign) UnmarshalJSON(b []byte) error {
	type plain Campaign
	p := plain{Gate: DefaultGate(), SoakEpochs: DefaultSoakEpochs}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return err
	}
	if p.Waves == nil {
		p.Waves = DefaultWaves()
	}
	*c = Campaign(p)
	return nil
}

// Target is one kind's redeployment within a campaign: the candidate
// variant to roll out and the baseline to roll back to, both as
// declarative agent specs resolved on each node's environment — which
// is what lets a campaign target substrate-backed kinds (memory,
// sampler) and be stored as a manifest.
//
//sollint:wire ManifestVersion
type Target struct {
	// Candidate is the variant being rolled out; its Kind names the
	// agent kind, and every member of that kind on a converted node is
	// replaced.
	Candidate spec.Agent `json:"candidate"`
	// Baseline is what rollback (and post-failure recovery) deploys.
	// Nil means the environment baseline of the candidate's kind —
	// exactly the variant the node launched at setup.
	Baseline *spec.Agent `json:"baseline,omitempty"`
}

// compiledTarget is a validated target: the specs conversion and
// rollback deploy with Supervisor.ReplaceSpec.
type compiledTarget struct {
	candidate, baseline spec.Agent
}

// baseline returns the spec rollback deploys: Baseline, with an empty
// kind defaulting to the candidate's, or else the environment baseline
// of the candidate's kind.
func (t Target) baseline() spec.Agent {
	if t.Baseline == nil {
		return spec.Agent{Kind: t.Candidate.Kind}
	}
	base := *t.Baseline
	if base.Kind == "" {
		base.Kind = t.Candidate.Kind
	}
	return base
}

// compile validates the target's candidate and baseline specs.
func (t Target) compile() (compiledTarget, error) {
	cand, base := t.Candidate, t.baseline()
	if err := cand.Validate(); err != nil {
		return compiledTarget{}, fmt.Errorf("controlplane: candidate: %w", err)
	}
	if base.Kind != cand.Kind {
		return compiledTarget{}, fmt.Errorf("controlplane: target kind %q has a %q baseline; candidate and baseline must redeploy the same kind",
			cand.Kind, base.Kind)
	}
	if err := base.Validate(); err != nil {
		return compiledTarget{}, fmt.Errorf("controlplane: baseline: %w", err)
	}
	return compiledTarget{candidate: cand, baseline: base}, nil
}

// Kinds returns the campaign's target kinds, in target order.
func (c *Campaign) Kinds() []string {
	out := make([]string, len(c.Targets))
	for i, t := range c.Targets {
		out[i] = t.Candidate.Kind
	}
	return out
}

// compile validates every target.
func (c *Campaign) compile() ([]compiledTarget, error) {
	targets := make([]compiledTarget, len(c.Targets))
	seen := make(map[string]bool, len(c.Targets))
	for i, t := range c.Targets {
		ct, err := t.compile()
		if err != nil {
			return nil, fmt.Errorf("%w (campaign %q)", err, c.Name)
		}
		kind := ct.candidate.Kind
		if seen[kind] {
			return nil, fmt.Errorf("controlplane: campaign %q targets kind %q twice", c.Name, kind)
		}
		seen[kind] = true
		targets[i] = ct
	}
	return targets, nil
}

func (c *Campaign) validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("controlplane: campaign has no name")
	case len(c.Targets) == 0:
		return fmt.Errorf("controlplane: campaign %q has no targets", c.Name)
	case c.SoakEpochs < 1:
		return fmt.Errorf("controlplane: campaign %q: SoakEpochs = %d, must be >= 1", c.Name, c.SoakEpochs)
	case len(c.Waves) == 0:
		return fmt.Errorf("controlplane: campaign %q has no waves", c.Name)
	}
	prev := 0.0
	for i, w := range c.Waves {
		// The comparisons are phrased so NaN fails too: every NaN
		// comparison is false, so !(w > prev && w <= 1) catches it.
		if !(w > prev && w <= 1) {
			return fmt.Errorf("controlplane: campaign %q: wave %d fraction %v not strictly increasing in (0, 1]", c.Name, i+1, w)
		}
		prev = w
	}
	// NaN-safe phrasing again: !(q >= 0 && q <= 1) catches NaN.
	if q := c.Quorum; !(q >= 0 && q <= 1) {
		return fmt.Errorf("controlplane: campaign %q: Quorum = %v, must be in [0, 1]", c.Name, q)
	}
	if c.MaxSoakExtends < 0 {
		return fmt.Errorf("controlplane: campaign %q: MaxSoakExtends = %d, must be >= 0", c.Name, c.MaxSoakExtends)
	}
	if c.DeployRetries < 0 {
		return fmt.Errorf("controlplane: campaign %q: DeployRetries = %d, must be >= 0", c.Name, c.DeployRetries)
	}
	if c.TolerateDown < -1 {
		return fmt.Errorf("controlplane: campaign %q: TolerateDown = %d, must be >= -1", c.Name, c.TolerateDown)
	}
	_, err := c.compile()
	return err
}

// cohortSize converts a wave fraction to a node count: the ceiling of
// frac × nodes, at least 1, at most nodes. The epsilon absorbs float
// rounding in the product — 0.07 × 100 lands one ULP above 7 and must
// still mean 7 nodes, not 8: the blast-radius cap never rounds up
// past what the wave plan declared.
func cohortSize(frac float64, nodes int) int {
	n := int(math.Ceil(frac*float64(nodes) - 1e-9))
	if n < 1 {
		n = 1
	}
	if n > nodes {
		n = nodes
	}
	return n
}

// CohortHealth aggregates the campaign kind's agents across the
// converted cohort at one lockstep barrier: live safeguard state,
// cumulative safeguard and fault counters, and the last epoch's
// actuation-deadline compliance. This is the evidence a Gate judges.
//
// CohortHealth rides in every journaled WaveEvent, where resume
// compares entries with ==, so its wire shape is guarded by
// JournalVersion.
//
//sollint:wire JournalVersion
type CohortHealth struct {
	// Agents is the cohort size in agents (not nodes).
	Agents int `json:"agents"`
	// Halted and ModelFailing count agents whose respective safeguard
	// is currently engaged.
	Halted       int `json:"halted,omitempty"`
	ModelFailing int `json:"model_failing,omitempty"`
	// ActuatorTriggers and ModelTriggers are cumulative safeguard trip
	// counts over the cohort's lifetime; Mitigations likewise.
	ActuatorTriggers uint64 `json:"actuator_triggers,omitempty"`
	ModelTriggers    uint64 `json:"model_triggers,omitempty"`
	Mitigations      uint64 `json:"mitigations,omitempty"`
	// ScheduleViolations counts model steps that ran late — the
	// footprint of scheduling-delay faults.
	ScheduleViolations uint64 `json:"schedule_violations,omitempty"`
	// DataRejected over DataCollected is the bad-input-data footprint.
	DataRejected  uint64 `json:"data_rejected,omitempty"`
	DataCollected uint64 `json:"data_collected,omitempty"`
	// DeadlineMet over DeadlineEligible is actuation-deadline
	// compliance over the last lockstep epoch: an eligible agent (has
	// a deadline no longer than the epoch, never halted) must act at
	// least floor(epoch/deadline) times per epoch.
	DeadlineMet      int `json:"deadline_met,omitempty"`
	DeadlineEligible int `json:"deadline_eligible,omitempty"`
	// Node attendance: of the NodesTotal nodes targeted by the
	// campaign so far, NodesReporting contributed the agent evidence
	// above; NodesDown are crashed, NodesDark are observability-dark,
	// and the remainder (if any) are up but not yet converted (deploy
	// deferred while they were down). The quorum gate judges
	// NodesReporting/NodesTotal; the tolerate-down policy judges
	// NodesDown. All zero only in pre-lifecycle traces.
	NodesTotal     int `json:"nodes_total,omitempty"`
	NodesReporting int `json:"nodes_reporting,omitempty"`
	NodesDown      int `json:"nodes_down,omitempty"`
	NodesDark      int `json:"nodes_dark,omitempty"`
}

// add accumulates o into h, field-wise. The campaign sums per-shard
// cohort healths into the union the shared gate judges; every field is
// a count, so the sum over shards equals a single-pass aggregation
// over the whole cohort.
func (h *CohortHealth) add(o CohortHealth) {
	h.Agents += o.Agents
	h.Halted += o.Halted
	h.ModelFailing += o.ModelFailing
	h.ActuatorTriggers += o.ActuatorTriggers
	h.ModelTriggers += o.ModelTriggers
	h.Mitigations += o.Mitigations
	h.ScheduleViolations += o.ScheduleViolations
	h.DataRejected += o.DataRejected
	h.DataCollected += o.DataCollected
	h.DeadlineMet += o.DeadlineMet
	h.DeadlineEligible += o.DeadlineEligible
	h.NodesTotal += o.NodesTotal
	h.NodesReporting += o.NodesReporting
	h.NodesDown += o.NodesDown
	h.NodesDark += o.NodesDark
}

// String renders the cohort health as one deterministic line. The
// node-attendance suffix appears only when attendance is imperfect —
// some targeted node down, dark, or unconverted — so fault-free traces
// render exactly as they always have.
func (h CohortHealth) String() string {
	deadline := "n/a"
	if h.DeadlineEligible > 0 {
		deadline = fmt.Sprintf("%d/%d", h.DeadlineMet, h.DeadlineEligible)
	}
	attendance := ""
	if h.NodesTotal > 0 && h.NodesReporting < h.NodesTotal {
		attendance = fmt.Sprintf(" nodes=%d/%d down=%d dark=%d",
			h.NodesReporting, h.NodesTotal, h.NodesDown, h.NodesDark)
	}
	return fmt.Sprintf("agents=%d halted=%d failing=%d act-trig=%d model-trig=%d viol=%d rejected=%d/%d deadline=%s%s",
		h.Agents, h.Halted, h.ModelFailing, h.ActuatorTriggers, h.ModelTriggers,
		h.ScheduleViolations, h.DataRejected, h.DataCollected, deadline, attendance)
}

// Gate is the health bar a converted cohort must clear for a rollout
// to proceed. Each threshold gates one failure signal; the zero value
// of a Max* field tolerates none of that signal (the strictest gate),
// and a negative value disables the check. MinDeadlineFrac is a floor:
// zero disables it.
//
// Checks run in the order the paper introduces the failure conditions
// (§3.2): bad input data, inaccurate models, scheduling delays
// (violations, then deadline compliance), then environmental
// interference (halts, then cumulative actuator trips). The first
// check that trips names the campaign's taxonomy.FailureClass.
//
//sollint:wire ManifestVersion
type Gate struct {
	// MaxRejectedFrac bounds DataRejected/DataCollected.
	MaxRejectedFrac float64 `json:"max_rejected_frac"`
	// MaxViolationsPerAgent bounds cumulative schedule violations per
	// cohort agent.
	MaxViolationsPerAgent float64 `json:"max_violations_per_agent"`
	// MinDeadlineFrac is the minimum DeadlineMet/DeadlineEligible over
	// the last epoch; zero disables.
	MinDeadlineFrac float64 `json:"min_deadline_frac"`
	// MaxModelFailingFrac bounds the fraction of agents currently
	// failing model assessment.
	MaxModelFailingFrac float64 `json:"max_model_failing_frac"`
	// MaxHaltedFrac bounds the fraction of agents currently halted by
	// their actuator safeguard.
	MaxHaltedFrac float64 `json:"max_halted_frac"`
	// MaxTriggersPerAgent bounds cumulative actuator-safeguard trips
	// per cohort agent.
	MaxTriggersPerAgent float64 `json:"max_triggers_per_agent"`
}

// DefaultGate returns the standard rollout gate: a few percent of
// halts, some model-safeguard churn, a handful of schedule violations,
// and near-total deadline compliance. The rejected-data bar is
// deliberately high: agents reject statistically censored samples as a
// matter of routine (SmartHarvest censors ~15% at full-grant
// utilization), so the default only catches gross corruption —
// campaigns should calibrate MaxRejectedFrac to their kind's natural
// censoring rate.
func DefaultGate() Gate {
	return Gate{
		MaxRejectedFrac:       0.50,
		MaxViolationsPerAgent: 3,
		MinDeadlineFrac:       0.95,
		MaxModelFailingFrac:   0.25,
		MaxHaltedFrac:         0.02,
		MaxTriggersPerAgent:   0.10,
	}
}

// GateResult is one gate judgement.
type GateResult struct {
	OK bool
	// Reason describes the tripped check; empty when OK.
	Reason string
	// Class is the §3.2 failure condition the tripped check indicates.
	Class taxonomy.FailureClass
}

// Check judges h against the gate. An empty cohort passes vacuously.
func (g Gate) Check(h CohortHealth) GateResult {
	if h.Agents == 0 {
		return GateResult{OK: true}
	}
	n := float64(h.Agents)
	if g.MaxRejectedFrac >= 0 && h.DataCollected > 0 {
		if frac := float64(h.DataRejected) / float64(h.DataCollected); frac > g.MaxRejectedFrac {
			return GateResult{
				Reason: fmt.Sprintf("rejected-data fraction %.3f > %.3f", frac, g.MaxRejectedFrac),
				Class:  taxonomy.FailureBadData,
			}
		}
	}
	if g.MaxModelFailingFrac >= 0 {
		if frac := float64(h.ModelFailing) / n; frac > g.MaxModelFailingFrac {
			return GateResult{
				Reason: fmt.Sprintf("model-failing fraction %.3f > %.3f", frac, g.MaxModelFailingFrac),
				Class:  taxonomy.FailureInaccurateModel,
			}
		}
	}
	if g.MaxViolationsPerAgent >= 0 {
		if v := float64(h.ScheduleViolations) / n; v > g.MaxViolationsPerAgent {
			return GateResult{
				Reason: fmt.Sprintf("schedule violations per agent %.2f > %.2f", v, g.MaxViolationsPerAgent),
				Class:  taxonomy.FailureSchedulingDelay,
			}
		}
	}
	if g.MinDeadlineFrac > 0 && h.DeadlineEligible > 0 {
		if frac := float64(h.DeadlineMet) / float64(h.DeadlineEligible); frac < g.MinDeadlineFrac {
			return GateResult{
				Reason: fmt.Sprintf("deadline compliance %.3f < %.3f", frac, g.MinDeadlineFrac),
				Class:  taxonomy.FailureSchedulingDelay,
			}
		}
	}
	if g.MaxHaltedFrac >= 0 {
		if frac := float64(h.Halted) / n; frac > g.MaxHaltedFrac {
			return GateResult{
				Reason: fmt.Sprintf("halted fraction %.3f > %.3f", frac, g.MaxHaltedFrac),
				Class:  taxonomy.FailureEnvironment,
			}
		}
	}
	if g.MaxTriggersPerAgent >= 0 {
		if v := float64(h.ActuatorTriggers) / n; v > g.MaxTriggersPerAgent {
			return GateResult{
				Reason: fmt.Sprintf("actuator-safeguard trips per agent %.2f > %.2f", v, g.MaxTriggersPerAgent),
				Class:  taxonomy.FailureEnvironment,
			}
		}
	}
	return GateResult{OK: true}
}

// Config describes one control-plane run: a fleet, a lockstep
// observation interval, and optionally a campaign to execute over it.
type Config struct {
	// Fleet is the underlying fleet simulation; every node starts on
	// the baseline (whatever Fleet.Setup launches).
	Fleet fleet.Config
	// Interval is the lockstep epoch length — the control plane's
	// observation period.
	Interval time.Duration
	// Campaign, when non-nil, is executed during the run. Nil gives a
	// plain lockstep run, the no-campaign baseline rollback reports
	// are compared against.
	Campaign *Campaign
	// Journal, when non-nil, records every wave event as it is decided
	// (synced per entry), so a killed run can be resumed. The caller
	// owns the journal's lifetime; Run never closes it.
	Journal *Journal
	// Replay is the wave-event prefix recovered from a killed run's
	// journal (see Resume). The run re-simulates from the virtual
	// start — determinism makes that exact — and verifies each decision
	// it reproduces against the prefix, erroring on the first
	// divergence (a journal from a different configuration); events
	// past the prefix are appended to Journal as usual.
	Replay []WaveEvent
}

func (c Config) validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("controlplane: Interval = %v, must be positive", c.Interval)
	}
	if c.Campaign != nil {
		return c.Campaign.validate()
	}
	return nil
}
