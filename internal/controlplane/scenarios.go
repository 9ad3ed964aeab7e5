package controlplane

import (
	"encoding/json"
	"fmt"
	"time"

	"sol/internal/agents/harvest"
	"sol/internal/faults"
	"sol/internal/fleet"
	"sol/internal/spec"
)

// The built-in demonstration scenarios, shared by cmd/solrollout,
// examples/rollout, and the tests. All three roll a SmartHarvest
// variant across a StandardNode fleet — harvesting is the agent whose
// misbehaviour directly hurts customer QoS (primary-VM vCPU wait), so
// it is the one a platform operator canaries hardest. They differ in
// what goes wrong.
const (
	// ScenarioHealthy rolls out a sane candidate (one extra core of
	// safety buffer). Every wave passes its gate and the campaign
	// completes at 100%.
	ScenarioHealthy = "healthy"
	// ScenarioBadVariant rolls out a botched candidate that harvests
	// with no safety buffer and near-symmetric misprediction costs at
	// the fleet's coarse 1 ms sampling — exactly the configuration the
	// fleet schedule's calibration note warns puts vCPU wait on the
	// primary. The canary cohort's actuator safeguards trip during the
	// soak, the first gate fails, and the campaign rolls back with the
	// blast radius capped at the canary fraction.
	ScenarioBadVariant = "bad-variant"
	// ScenarioFaultStorm rolls out the sane candidate into a fleet
	// that suffers a scheduling-delay storm (injected via
	// internal/faults) while wave 3 is soaking: model steps run late
	// fleet-wide, the gate trips on the converted cohort's schedule
	// violations, and the campaign rolls back naming the
	// scheduling-delay failure class — while SOL's decoupled actuators
	// keep every node safe and deadline-compliant through the storm.
	ScenarioFaultStorm = "fault-storm"
	// ScenarioCrashStorm rolls out the sane candidate while 20% of the
	// fleet crashes mid-campaign (wave 3's soak). The robustness policy
	// carries it through: the quorum gate extends the soak instead of
	// judging a cohort it cannot see, deploy retries absorb nodes that
	// are down at a conversion barrier, and the blameless candidate
	// completes on the nodes that survive instead of being falsely
	// rolled back by a fault it did not cause.
	ScenarioCrashStorm = "crash-storm"
	// ScenarioCrashStormBad rolls out the botched no-buffer candidate
	// into the same crash storm, striking during the canary soak. The
	// quorum gate does not mask real degradation: the surviving
	// canaries' actuator safeguards still trip the gate and the
	// campaign rolls back with the same failure class as a fault-free
	// bad-variant run — crashes change availability, not the verdict.
	ScenarioCrashStormBad = "crash-storm-bad"
)

// crashStormSeed salts the scenario seed for the crash scenarios'
// node selection, so the crashed set and the cohort shuffle are
// independent draws of the same scenario seed.
const crashStormSeed = 0xbadc0de

// Scenarios lists the built-in scenario names.
func Scenarios() []string {
	return []string{ScenarioHealthy, ScenarioBadVariant, ScenarioFaultStorm,
		ScenarioCrashStorm, ScenarioCrashStormBad}
}

// ScenarioSpec parameterizes a built-in scenario.
type ScenarioSpec struct {
	// Scenario is one of the Scenario* names.
	Scenario string
	// Nodes and Duration size the fleet; Interval is the lockstep
	// epoch (0 means 5 s). Duration should cover the full wave plan:
	// (waves × soak + 1) × interval.
	Nodes    int
	Duration time.Duration
	Interval time.Duration
	// Waves and SoakEpochs override the wave plan; nil/zero give the
	// canonical 1% → 5% → 25% → 100% with a 2-epoch soak.
	Waves      []float64
	SoakEpochs int
	// Kinds is the node co-location; nil means fleet.StandardKinds.
	Kinds []string
	// Seed varies workloads and the cohort shuffle.
	Seed uint64
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Shards partitions the fleet into that many independently
	// advancing shards (see internal/shard); 0 means 1.
	Shards int
}

// NewScenario builds the ready-to-Run config for sc. The campaigns it
// returns are fully declarative: the candidate is an agent spec whose
// params overlay the fleet's per-node baseline, so conversion changes
// only the knobs under study and rollback (the implicit nil baseline)
// restores exactly the variant StandardNode launched.
func NewScenario(sc ScenarioSpec) (Config, error) {
	waves := sc.Waves
	if waves == nil {
		waves = DefaultWaves()
	}
	soak := sc.SoakEpochs
	if soak == 0 {
		soak = DefaultSoakEpochs
	}
	interval := sc.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	std := fleet.StandardNodeConfig{Seed: sc.Seed, Kinds: sc.Kinds}

	camp := &Campaign{
		Waves:      waves,
		SoakEpochs: soak,
		Gate:       DefaultGate(),
		Seed:       sc.Seed,
	}
	var params string
	var lifecycle faults.NodePlan
	switch sc.Scenario {
	case ScenarioHealthy, ScenarioFaultStorm, ScenarioCrashStorm:
		camp.Name = "buffer-3"
		params = `{"Config": {"SafetyBuffer": 3}}`
		if sc.Scenario == ScenarioFaultStorm {
			if len(waves) < 3 {
				return Config{}, fmt.Errorf("controlplane: %s needs >= 3 waves, have %d", sc.Scenario, len(waves))
			}
			// The storm covers exactly wave 3's soak window: wave w
			// converts at epoch (w-1)·soak when all prior gates pass.
			from := fleet.DefaultStart.Add(time.Duration(2*soak) * interval)
			std.Options.ModelDelay = (&faults.PeriodicDelay{
				From:  from,
				Until: from.Add(time.Duration(soak) * interval),
				D:     time.Second,
			}).ModelDelay
		}
		if sc.Scenario == ScenarioCrashStorm {
			// 20% of the fleet crashes permanently mid-way through wave
			// 3's soak — off the epoch grid on purpose, so the fleet's
			// exact-transition stepping is exercised, not just its
			// epoch boundaries.
			lifecycle = faults.Crash{
				At:   time.Duration(2*soak)*interval + interval/2,
				Frac: 0.2,
				Seed: sc.Seed ^ crashStormSeed,
			}
		}
	case ScenarioBadVariant, ScenarioCrashStormBad:
		camp.Name = "no-buffer-harvester"
		// The fleet calibration note warns that 1 ms sampling lags
		// bursts by a full epoch and needs the two-core buffer; a
		// candidate that drops the buffer and flattens the paper's
		// 8:1 under-prediction cost asymmetry puts vCPU wait
		// straight onto the customer-facing primary VM.
		params = `{"Config": {"SafetyBuffer": 0, "UnderCost": 1}}`
		if sc.Scenario == ScenarioCrashStormBad {
			// The same 20% storm, striking during the canary soak —
			// the case where a quorum gate must not excuse a genuinely
			// bad candidate.
			lifecycle = faults.Crash{
				At:   interval / 2,
				Frac: 0.2,
				Seed: sc.Seed ^ crashStormSeed,
			}
		}
	default:
		return Config{}, fmt.Errorf("controlplane: unknown scenario %q (have %v)", sc.Scenario, Scenarios())
	}
	if lifecycle != nil {
		// The §5-style degradation policy both crash scenarios run
		// under: a gate needs to see 90% of its cohort (extending the
		// soak up to twice when it cannot), deploys blocked by a down
		// node retry twice with backoff, and any number of converted
		// nodes may be down without halting the campaign.
		camp.Quorum = 0.9
		camp.MaxSoakExtends = 2
		camp.DeployRetries = 2
		camp.TolerateDown = -1
	}
	camp.Targets = []Target{{
		Candidate: spec.Agent{
			Kind:    harvest.Kind,
			Variant: camp.Name,
			Params:  json.RawMessage(params),
		},
	}}

	return Config{
		Fleet: fleet.Config{
			Nodes:     sc.Nodes,
			Duration:  sc.Duration,
			Workers:   sc.Workers,
			Shards:    sc.Shards,
			Setup:     fleet.StandardNode(std),
			Start:     fleet.DefaultStart,
			Lifecycle: lifecycle,
		},
		Interval: interval,
		Campaign: camp,
	}, nil
}
