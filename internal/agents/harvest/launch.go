package harvest

import (
	"fmt"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/node"
	"sol/internal/spec"
)

// Kind identifies SmartHarvest to supervisors that manage
// heterogeneous agents.
const Kind = "harvest"

// Agent is a running SmartHarvest instance: its Model, Actuator and
// runtime held by value in one heap object. Its embedded runtime makes
// it the core.Handle the kind's spec launch returns, so a holder of that
// handle reaches the fault hooks with one type assertion:
// h.(*harvest.Agent).Model.Break(true). The runtime drives &Model and
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
// SmartHarvest — the harvest kind's spec params.
type Variant = spec.Variant[Config]

// DefaultVariant returns the paper-calibrated baseline variant
// harvesting from primary into elastic.
func DefaultVariant(primary, elastic string) Variant {
	return Variant{Name: "baseline", Config: DefaultConfig(primary, elastic), Schedule: Schedule()}
}

// The harvest kind's defaults are the paper calibration harvesting the
// conventional "primary" VM into "elastic".
func init() {
	spec.Register(Kind, DefaultVariant("primary", "elastic"), func(env spec.NodeEnv, v Variant) (core.Handle, error) {
		if env.Node == nil {
			return nil, fmt.Errorf("harvest: spec launch needs a node in the environment")
		}
		ag, err := start(env.Clock, env.Node, v.Config, v.Schedule, env.Options)
		if err != nil {
			return nil, err
		}
		return ag, nil
	})
}
