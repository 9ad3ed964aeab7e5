package sampler

import (
	"fmt"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/spec"
	"sol/internal/telemetry"
)

// Kind identifies SmartSampler to supervisors that manage
// heterogeneous agents.
const Kind = "sampler"

// Agent is a running SmartSampler instance. Its embedded runtime makes it
// the core.Handle the kind's spec launch returns, so a holder of that
// handle reaches the fault hooks with one type assertion:
// h.(*sampler.Agent).Model.Break(true).
type Agent struct {
	Model    *Model
	Actuator *Actuator
	*core.Runtime[Obs, Allocation]
}

// start builds the Model and Actuator for cfg and runs them under the
// SOL runtime on clk with sched.
func start(clk clock.Clock, src *telemetry.Source, cfg Config, sched core.Schedule, opts core.Options) (*Agent, error) {
	m, err := NewModel(src, cfg)
	if err != nil {
		return nil, err
	}
	a := NewActuator(src)
	rt, err := core.Run[Obs, Allocation](clk, m, a, sched, opts)
	if err != nil {
		return nil, err
	}
	return &Agent{Model: m, Actuator: a, Runtime: rt}, nil
}

// Variant is a named, fully deployable parameterization of
// SmartSampler — the sampler kind's spec params.
type Variant = spec.Variant[Config]

// DefaultVariant returns the standard baseline variant.
func DefaultVariant() Variant {
	return Variant{Name: "baseline", Config: DefaultConfig(), Schedule: Schedule()}
}

// The sampler kind's defaults are the standard calibration, reseeded
// from the node's seed root with the standard-node offset when one is
// provided. Launching requires a telemetry substrate in the node
// environment, so a redeploy hands the successor the same source — and
// sampling history — the predecessor tuned.
func init() {
	spec.Register(Kind, func(env spec.NodeEnv) Variant {
		v := DefaultVariant()
		if env.Seed != 0 {
			v.Config.Seed = env.Seed + 5
		}
		return v
	}, func(env spec.NodeEnv, v Variant) (core.Handle, error) {
		if env.Telemetry == nil {
			return nil, fmt.Errorf("sampler: spec launch needs a telemetry substrate in the environment")
		}
		ag, err := start(env.Clock, env.Telemetry, v.Config, v.Schedule, env.Options)
		if err != nil {
			return nil, err
		}
		return ag, nil
	})
}
