package core

// Handle is the type-erased management view of a running agent
// runtime. Runtime[D, P] is generic in the agent's data and prediction
// types, so two different agents' runtimes have unrelated Go types; a
// supervisor that co-locates heterogeneous agents on one node (the
// paper deploys SmartOverclock, SmartHarvest, and SmartMemory side by
// side on every node) manages them through this interface instead.
//
// Handle exposes exactly the operations that are meaningful without
// knowing D and P: observing the counters, reading safeguard state,
// and stopping the agent. Anything prediction-typed stays behind the
// concrete Runtime.
type Handle interface {
	// Stats returns a snapshot of the runtime's counters.
	Stats() Stats
	// Stop halts both control loops and runs the Actuator's CleanUp.
	// It is idempotent.
	Stop()
	// Health returns the runtime's health snapshot in one lock
	// acquisition. Fleet-scale monitors poll this between lockstep
	// epochs, so it must stay cheap: no allocation, no full Stats copy.
	Health() Health
}

// Health is the point-in-time safeguard and progress view of one
// runtime — the subset of Stats a fleet control plane gates rollout
// waves on, plus the two live safeguard booleans. It is deliberately
// small: a million-node control loop reads these every observation
// interval.
type Health struct {
	// Halted reports whether the actuator loop is currently halted by
	// its performance safeguard; ModelFailing likewise for the model
	// safeguard's prediction interception.
	Halted       bool
	ModelFailing bool
	// Actions counts TakeAction calls; monitors difference successive
	// snapshots to check actuation-deadline compliance per interval.
	Actions uint64
	// ActuatorSafeguardTriggers and ModelSafeguardTriggers count
	// safeguard trips over the runtime's lifetime (not just current
	// state — a safeguard that fired and recovered still counts).
	ActuatorSafeguardTriggers uint64
	ModelSafeguardTriggers    uint64
	// Mitigations counts Mitigate calls.
	Mitigations uint64
	// ScheduleViolations counts model steps that ran late, the
	// footprint of scheduling-delay faults.
	ScheduleViolations uint64
	// DataRejected over DataCollected is the bad-input-data footprint.
	DataRejected  uint64
	DataCollected uint64
}

// Runtime must keep satisfying Handle for every type instantiation.
var _ Handle = (*Runtime[struct{}, struct{}])(nil)
