package controlplane

import (
	"fmt"
	"strings"
	"time"

	"sol/internal/fleet"
	"sol/internal/obs"
	"sol/internal/taxonomy"
)

// Wave-trace actions, in the vocabulary an operator reads: a cohort
// slice converts to the candidate, a soaked wave passes or fails its
// gate, a failed gate rolls the whole cohort back, and a passed final
// wave completes the campaign. Under lifecycle faults two more
// appear: a gate abstains (extends the soak) when too few cohort
// nodes report to make quorum, and the campaign halts when more
// converted nodes are down than the tolerate-down policy allows.
const (
	ActionConvert  = "convert"
	ActionPass     = "pass"
	ActionFail     = "fail"
	ActionRollback = "rollback"
	ActionComplete = "complete"
	ActionAbstain  = "abstain"
	ActionHalt     = "halt"
)

// actionEvent maps a wave-trace action to its flight-recorder event
// kind, so the campaign decisions in a -trace export use the same
// vocabulary as the wave trace.
func actionEvent(action string) obs.EventKind {
	switch action {
	case ActionConvert:
		return obs.EvConvert
	case ActionPass:
		return obs.EvPass
	case ActionFail:
		return obs.EvFail
	case ActionRollback:
		return obs.EvRollback
	case ActionComplete:
		return obs.EvComplete
	case ActionAbstain:
		return obs.EvAbstain
	}
	return obs.EvHalt
}

// WaveEvent is one entry of a campaign's wave trace. It is plain
// comparable data (== is exact) and serializes to JSON — the campaign
// journal records one WaveEvent per line, and resume verifies the
// re-simulated decisions against the recorded ones with ==. Its wire
// shape is therefore journal format, guarded by JournalVersion.
//
//sollint:wire JournalVersion
type WaveEvent struct {
	// Epoch is the lockstep epoch at which the event occurred; 0 is
	// the virtual start instant, before any time passed.
	Epoch int `json:"epoch"`
	// At is the elapsed virtual time at the event.
	At time.Duration `json:"at"`
	// Wave is the 1-based wave the event belongs to.
	Wave int `json:"wave"`
	// Action is one of the Action* constants.
	Action string `json:"action"`
	// Converted is the targeted cohort size (nodes) after the event —
	// nodes the campaign has tried (or is retrying) to convert.
	Converted int `json:"converted"`
	// Health is the judged cohort health (pass/fail/complete/abstain/
	// halt events).
	Health CohortHealth `json:"health"`
	// Reason describes the tripped gate check (fail/halt events) or
	// the missing quorum (abstain events).
	Reason string `json:"reason,omitempty"`
	// Class is the failure condition the gate tripped on
	// (fail/rollback/halt events).
	Class taxonomy.FailureClass `json:"class,omitempty"`
}

// WaveProfile is the conductor's wall-time attribution over one
// judged wave: the profile delta between the wave's settling decision
// (pass, complete, rollback, or halt — soak extensions do not settle)
// and the previous one. Like every profile, its counts are
// deterministic and its wall-time fields are diagnostic only.
//
//sollint:wire ReportVersion
type WaveProfile struct {
	// Wave is the 1-based wave the profile covers; Epoch is the gate
	// boundary at which it settled.
	Wave  int `json:"wave"`
	Epoch int `json:"epoch"`
	// Profile is the per-shard attribution of just this wave's stretch.
	Profile obs.Profile `json:"profile"`
}

// ReportVersion guards the JSON shape of Report and WaveProfile — the
// payload inside cmd/solrollout's -metrics envelope. The envelope's
// metricsVersion pins the outer schema; this constant pins the report
// itself. Bump it (and regenerate the wirelock) on any field change.
const ReportVersion = 1

// Report is the outcome of one control-plane run: the wave trace and
// campaign verdict (when a campaign ran) plus the final fleet report
// at the horizon. The json tags define the -metrics export shape; the
// embedded fleet.Report carries its own wire version.
//
//sollint:wire ReportVersion
type Report struct {
	Nodes    int           `json:"nodes"`
	Interval time.Duration `json:"interval_ns"`
	// Shards is the conductor's partition count the run executed on: 1
	// by default. String labels it only above 1.
	Shards int `json:"shards,omitempty"`

	// Campaign fields; Campaign is empty for a plain lockstep run.
	Campaign string `json:"campaign,omitempty"`
	// Kinds are the campaign's target kinds, in target order.
	Kinds []string    `json:"kinds,omitempty"`
	Waves []float64   `json:"waves,omitempty"`
	Trace []WaveEvent `json:"trace,omitempty"`
	// Completed means every wave passed its gate; RolledBack means a
	// gate failed and the cohort was reverted to baseline; Halted
	// means the tolerate-down policy stopped the campaign with the
	// cohort frozen in place. At most one is true; all false means the
	// horizon ended mid-campaign.
	Completed  bool `json:"completed,omitempty"`
	RolledBack bool `json:"rolled_back,omitempty"`
	Halted     bool `json:"halted,omitempty"`
	// Failure names the §3.2 failure condition a failed gate tripped
	// on, FailureWave the wave it tripped at, and FailureReason the
	// tripped check.
	Failure       taxonomy.FailureClass `json:"failure,omitempty"`
	FailureWave   int                   `json:"failure_wave,omitempty"`
	FailureReason string                `json:"failure_reason,omitempty"`
	// MaxConverted is the largest cohort (nodes) the candidate ever
	// held — the campaign's blast radius. Converted is the cohort
	// actually running the candidate at the horizon (0 after a
	// rollback). Under lifecycle faults it can be smaller than the
	// targeted cohort: Unconverted counts targeted nodes never
	// converted (down at deploy, retries exhausted or still pending),
	// and Stranded counts nodes left on the candidate after a rollback
	// because the revert could not reach them.
	MaxConverted int `json:"max_converted,omitempty"`
	Converted    int `json:"converted,omitempty"`
	Unconverted  int `json:"unconverted,omitempty"`
	Stranded     int `json:"stranded,omitempty"`

	// WaveProfiles attributes the run's wall time wave by wave when the
	// fleet ran with Config.Fleet.Profile; empty otherwise. One entry
	// per settled wave.
	WaveProfiles []WaveProfile `json:"wave_profiles,omitempty"`

	// Fleet is the full fleet report at the horizon.
	Fleet *fleet.Report `json:"fleet"`
}

// String renders the wave trace and verdict, then the fleet report.
// The rendering is deterministic: identical campaign configs yield
// byte-identical strings.
func (r *Report) String() string {
	var b strings.Builder
	shardLabel := ""
	if r.Shards > 1 {
		shardLabel = fmt.Sprintf(", %d shards", r.Shards)
	}
	if r.Campaign == "" {
		fmt.Fprintf(&b, "controlplane: %d nodes, no campaign, %v epochs%s\n", r.Nodes, r.Interval, shardLabel)
		b.WriteString(r.Fleet.String())
		return b.String()
	}
	kindLabel := "kind"
	if len(r.Kinds) > 1 {
		kindLabel = "kinds"
	}
	fmt.Fprintf(&b, "campaign %q on %s %s: %d nodes, %d waves, %v epochs%s\n",
		r.Campaign, kindLabel, strings.Join(r.Kinds, "+"), r.Nodes, len(r.Waves), r.Interval, shardLabel)
	fmt.Fprintf(&b, "%5s %9s %4s %-8s %6s  %s\n", "epoch", "t", "wave", "action", "cohort", "detail")
	for _, ev := range r.Trace {
		detail := ""
		switch ev.Action {
		case ActionPass, ActionComplete:
			detail = ev.Health.String()
		case ActionFail:
			detail = fmt.Sprintf("%s [%s] %s", ev.Reason, ev.Class, ev.Health)
		case ActionRollback:
			detail = fmt.Sprintf("reverted %d nodes to baseline [%s]", ev.Converted, ev.Class)
		case ActionAbstain:
			detail = fmt.Sprintf("%s — soak extended; %s", ev.Reason, ev.Health)
		case ActionHalt:
			detail = fmt.Sprintf("%s [%s] %s", ev.Reason, ev.Class, ev.Health)
		}
		fmt.Fprintf(&b, "%5d %9s %4d %-8s %6d  %s\n",
			ev.Epoch, ev.At, ev.Wave, ev.Action, ev.Converted, detail)
	}
	for i := range r.WaveProfiles {
		wp := &r.WaveProfiles[i]
		fmt.Fprintf(&b, "profile wave %d (epoch %d): %s\n", wp.Wave, wp.Epoch, wp.Profile.Summary())
	}
	switch {
	case r.Completed:
		unreached := ""
		if r.Unconverted > 0 {
			unreached = fmt.Sprintf(" (%d nodes unreachable)", r.Unconverted)
		}
		fmt.Fprintf(&b, "outcome: completed — %d/%d nodes on %q%s\n", r.Converted, r.Nodes, r.Campaign, unreached)
	case r.Halted:
		fmt.Fprintf(&b, "outcome: halted at wave %d/%d (cohort frozen: %d/%d nodes on candidate) — %s: %s\n",
			r.FailureWave, len(r.Waves), r.Converted, r.Nodes, r.Failure, r.FailureReason)
	case r.RolledBack:
		stranded := ""
		if r.Stranded > 0 {
			stranded = fmt.Sprintf(", %d stranded", r.Stranded)
		}
		fmt.Fprintf(&b, "outcome: rolled back at wave %d/%d (max cohort %d/%d nodes%s) — %s: %s\n",
			r.FailureWave, len(r.Waves), r.MaxConverted, r.Nodes, stranded, r.Failure, r.Failure.Describe())
	default:
		wave := 0
		if n := len(r.Trace); n > 0 {
			wave = r.Trace[n-1].Wave
		}
		fmt.Fprintf(&b, "outcome: horizon ended mid-campaign at wave %d/%d (%d/%d nodes converted)\n",
			wave, len(r.Waves), r.Converted, r.Nodes)
	}
	b.WriteString(r.Fleet.String())
	return b.String()
}
