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

// Agent is a running SmartOverclock instance: its Model, Actuator and
// runtime held by value in one heap object. Its embedded runtime makes
// it the core.Handle the kind's spec launch returns, so a holder of that
// handle reaches the fault hooks with one type assertion:
// h.(*overclock.Agent).Model.Break(true). The runtime drives &Model and
// &Actuator, so an Agent must not be copied after start.
type Agent struct {
	Model    Model
	Actuator Actuator
	core.Runtime[Sample, int]
}

// start builds the Model and Actuator for cfg in one new Agent and runs
// them under the SOL runtime on clk with sched.
func start(clk clock.Clock, n *node.Node, cfg Config, sched core.Schedule, opts core.Options) (*Agent, error) {
	ag := new(Agent)
	if err := ag.Model.init(n, cfg, sched); err != nil {
		return nil, err
	}
	if err := ag.Actuator.init(n, cfg); err != nil {
		return nil, err
	}
	if err := ag.Runtime.Start(clk, &ag.Model, &ag.Actuator, sched, opts); err != nil {
		return nil, err
	}
	return ag, nil
}

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
		return ag, nil
	})
}
