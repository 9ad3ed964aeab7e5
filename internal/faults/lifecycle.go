package faults

import "time"

// Node-lifecycle fault injection.
//
// The §3.2 taxonomy injectors in faults.go corrupt what an agent sees;
// a node-lifecycle fault kills the agent stack itself. A production
// fleet's dominant failure mode is nodes that crash, restart, or go
// dark mid-campaign, and a rollout control plane has to distinguish
// "the candidate is bad" from "the node under it died". A NodePlan
// schedules those faults on the fleet's virtual timeline so every
// layer — the fleet drivers, the sharded conductor, the campaign
// gates — sees the same transitions at the same simulated instants.

// NodeState is a node's availability at one simulated instant.
// Severity increases with the value.
type NodeState uint8

const (
	// NodeUp: the agent stack is running and observable.
	NodeUp NodeState = iota
	// NodeDark: the agents keep running (clocks and substrates
	// advance) but health reports are unavailable — the node has
	// dropped off the monitoring plane, not off the fleet.
	NodeDark
	// NodeDown: the agent stack is dead. Members are stopped (the
	// node watchdog running CleanUp); the substrate and virtual clock
	// keep advancing underneath, which is what a restart resumes onto.
	NodeDown
)

// String renders the state for reports and errors.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDark:
		return "dark"
	case NodeDown:
		return "down"
	}
	return "invalid"
}

// NodePlan schedules node-lifecycle faults over a fleet's virtual
// timeline. Times are elapsed durations since the fleet's virtual
// start instant.
//
// State reports node's availability at elapsed time at. Next reports
// the earliest instant strictly after `after` at which node's state
// may change, so fleet drivers can pause a free-running clock exactly
// at each transition — that exactness is what keeps fault runs
// byte-identical whatever the worker count, shard count, or stepping
// pattern.
//
// Implementations must be pure functions of (node, time):
// deterministic, safe for concurrent use, and allocation-free — fleet
// drivers consult them on hot per-epoch paths from many goroutines.
type NodePlan interface {
	State(node int, at time.Duration) NodeState
	Next(node int, after time.Duration) (time.Duration, bool)
}

// pickNode reports whether node is selected by a deterministic
// (seed, frac) draw within the index window [lo, hi); hi 0 means
// unbounded. Aligning the window with a shard's cell range localizes
// a fault to that shard. The draw is a splitmix64 finalizer over
// (seed, node) — allocation-free and independent per node, so
// selection never depends on evaluation order.
func pickNode(node, lo, hi int, frac float64, seed uint64) bool {
	if node < lo || (hi > 0 && node >= hi) {
		return false
	}
	if frac >= 1 {
		return true
	}
	if frac <= 0 {
		return false
	}
	z := seed ^ (uint64(node)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < frac
}

// Crash kills a deterministic fraction of nodes at one simulated
// instant: every member of a selected node stops, and the node stays
// down for the rest of the horizon. This is the crash-storm primitive:
// 20% of the fleet dying mid-soak is Crash{At: t, Frac: 0.2}.
type Crash struct {
	// At is the elapsed virtual time of the crash.
	At time.Duration
	// Frac is the fraction of in-window nodes that crash; 1 means all.
	Frac float64
	// Seed drives the deterministic node selection.
	Seed uint64
	// Lo and Hi bound the node-index window [Lo, Hi) the crash can
	// hit; Hi 0 means unbounded. Matching a shard's cell range
	// localizes the crash to that shard.
	Lo, Hi int
}

// State implements NodePlan.
func (c Crash) State(node int, at time.Duration) NodeState {
	if at >= c.At && pickNode(node, c.Lo, c.Hi, c.Frac, c.Seed) {
		return NodeDown
	}
	return NodeUp
}

// Next implements NodePlan.
func (c Crash) Next(node int, after time.Duration) (time.Duration, bool) {
	if after < c.At && pickNode(node, c.Lo, c.Hi, c.Frac, c.Seed) {
		return c.At, true
	}
	return 0, false
}
