// Package sol is the public facade of the SOL framework — a
// reproduction of "SOL: Safe On-Node Learning in Cloud Platforms"
// (ASPLOS 2022).
//
// SOL is a runtime for building on-node machine-learning agents that
// stay safe under production failure conditions. An agent implements
// two interfaces: Model (collect telemetry, validate it, learn,
// predict) and Actuator (act on predictions, assess end-to-end
// behaviour, mitigate, clean up). The runtime schedules both as
// decoupled control loops, so a throttled or failing model never stops
// the actuator from taking safe actions.
//
// A minimal agent:
//
//	clk := sol.NewVirtualClock(start)     // or sol.NewRealClock()
//	rt, err := sol.Run[MyData, MyPred](clk, myModel, myActuator, sol.Schedule{
//		DataPerEpoch:        10,
//		DataCollectInterval: 100 * time.Millisecond,
//		MaxEpochTime:        1500 * time.Millisecond,
//		AssessModelEvery:    1,
//		MaxActuationDelay:   5 * time.Second,
//	}, sol.Options{})
//	defer rt.Stop() // runs the Actuator's CleanUp
//
// Read a running agent through Stats (every counter) and Health (the
// safeguard booleans and the gating counters); end it with Stop.
//
// See examples/quickstart for a complete runnable agent, and the
// internal/agents packages for the paper's three production-grade
// agents (SmartOverclock, SmartHarvest, SmartMemory).
package sol

import (
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/spec"

	// The built-in agent kinds register their spec builders on import,
	// so importing the facade alone makes them resolvable via
	// LaunchSpec / RegisteredKinds.
	_ "sol/internal/agents/harvest"
	_ "sol/internal/agents/memory"
	_ "sol/internal/agents/overclock"
	_ "sol/internal/agents/sampler"
)

// Core API aliases: the facade and internal/core describe the same
// types, so agents written against either compose freely.
type (
	// Model is the learning half of an agent (paper Listing 1).
	Model[D, P any] = core.Model[D, P]
	// Actuator is the control half of an agent (paper Listing 2).
	Actuator[P any] = core.Actuator[P]
	// Prediction is a predicted value with an explicit expiry.
	Prediction[P any] = core.Prediction[P]
	// Schedule carries the timing parameters of both control loops
	// (paper Listing 3).
	Schedule = core.Schedule
	// Options tunes runtime behaviour (safeguard ablation, blocking
	// baseline, fault injection hooks).
	Options = core.Options
	// Runtime is a running agent.
	Runtime[D, P any] = core.Runtime[D, P]
	// Handle is a type-erased running agent, the uniform view
	// supervisors and spec launches return: Stats, Health and Stop.
	Handle = core.Handle
	// Stats are the runtime's counters.
	Stats = core.Stats
	// Clock abstracts time for deterministic simulation and real nodes.
	Clock = clock.Clock
	// VirtualClock is a deterministic discrete-event clock, driven
	// from one goroutine.
	VirtualClock = clock.Virtual
	// Timer is a scheduled callback, one-shot or periodic. Embed it
	// in its owner and arm it with Clock.Arm; Reset and Stop re-arm
	// and cancel it without allocating.
	Timer = clock.Timer
	// TimerHandler is what an armed Timer calls, with the firing
	// instant in nanoseconds on the clock's timebase.
	TimerHandler = clock.Handler

	// AgentSpec is a serializable, declarative agent deployment — the
	// stored/diffable alternative to launching agents in code. Resolve
	// it against a NodeEnv with LaunchSpec.
	AgentSpec = spec.Agent
	// NodeEnv is the per-node environment (clock, substrates,
	// baseline variants) agent specs resolve against.
	NodeEnv = spec.NodeEnv
)

// Run starts an agent's Model and Actuator control loops on clk
// (SOL::RunAgent from paper Listing 3).
func Run[D, P any](clk Clock, m Model[D, P], a Actuator[P], s Schedule, o Options) (*Runtime[D, P], error) {
	return core.Run[D, P](clk, m, a, s, o)
}

// NewVirtualClock returns a deterministic discrete-event clock starting
// at start. One goroutine drives it with RunFor/Run/Step and makes every
// other call on it too, arming agents and timers included, as
// examples/quickstart does; it holds no lock. Share NewRealClock across
// goroutines instead.
func NewVirtualClock(start time.Time) *VirtualClock { return clock.NewVirtual(start) }

// NewRealClock returns the wall clock, for agents deployed on real
// nodes.
func NewRealClock() Clock { return clock.NewReal() }

// RegisteredKinds lists the resolvable agent kinds, sorted.
func RegisteredKinds() []string { return spec.Kinds() }

// LaunchSpec resolves a declarative agent spec against the kind
// registry and starts it on env, returning the running agent's handle
// and its actuation deadline (for supervision).
func LaunchSpec(a AgentSpec, env NodeEnv) (core.Handle, time.Duration, error) {
	return spec.Launch(a, env)
}
