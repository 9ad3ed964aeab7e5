package overclock

import (
	"fmt"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/node"
	"sol/internal/spec"
)

// Kind identifies SmartOverclock to supervisors that manage
// heterogeneous agents.
const Kind = "overclock"

// Agent bundles a running SmartOverclock instance.
type Agent struct {
	Model    *Model
	Actuator *Actuator
	Runtime  *core.Runtime[Sample, int]
}

// Launch builds the Model and Actuator for cfg and starts them under
// the SOL runtime on clk with the paper-calibrated Schedule. opts
// customizes runtime behaviour (fault injection, safeguard ablation);
// pass core.Options{} for production behaviour.
func Launch(clk clock.Clock, n *node.Node, cfg Config, opts core.Options) (*Agent, error) {
	return start(clk, n, cfg, Schedule(), opts)
}

func start(clk clock.Clock, n *node.Node, cfg Config, sched core.Schedule, opts core.Options) (*Agent, error) {
	m, err := NewModel(n, cfg)
	if err != nil {
		return nil, err
	}
	a, err := NewActuator(n, cfg)
	if err != nil {
		return nil, err
	}
	rt, err := core.Run[Sample, int](clk, m, a, sched, opts)
	if err != nil {
		return nil, err
	}
	return &Agent{Model: m, Actuator: a, Runtime: rt}, nil
}

// Stop stops the runtime (running CleanUp).
func (a *Agent) Stop() { a.Runtime.Stop() }

// Handle returns the type-erased runtime handle for supervisors.
func (a *Agent) Handle() core.Handle { return a.Runtime }

// Variant is a named, fully deployable parameterization of
// SmartOverclock — the overclock kind's spec params.
type Variant = spec.Variant[Config]

// DefaultVariant returns the paper-calibrated baseline variant for vm.
func DefaultVariant(vm string) Variant {
	return Variant{Name: "baseline", Config: DefaultConfig(vm), Schedule: Schedule()}
}

// The overclock kind's defaults are the paper calibration on the
// conventional "batch" VM, reseeded from the node's seed root with the
// standard-node offset when one is provided.
func init() {
	spec.Register(Kind, func(env spec.NodeEnv) Variant {
		v := DefaultVariant("batch")
		if env.Seed != 0 {
			v.Config.Seed = env.Seed + 2
		}
		return v
	}, func(env spec.NodeEnv, v Variant) (core.Handle, error) {
		if env.Node == nil {
			return nil, fmt.Errorf("overclock: spec launch needs a node in the environment")
		}
		ag, err := start(env.Clock, env.Node, v.Config, v.Schedule, env.Options)
		if err != nil {
			return nil, err
		}
		return ag.Handle(), nil
	})
}
