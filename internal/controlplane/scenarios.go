package controlplane

import (
	"embed"
	"fmt"
	"strings"
	"time"

	"sol/internal/spec"
)

// The built-in demonstration scenarios, shared by cmd/solrollout, the
// benchmark and the tests. Each is a manifest checked in under
// scenarios/ and embedded in the binary. All five roll a SmartHarvest
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
	// rolled back by a fault it did not cause. The crash lands half an
	// epoch into the soak, off the epoch grid on purpose, so the
	// fleet's exact-transition stepping is exercised. Both crash
	// scenarios run the same policy: a gate needs 90% of its cohort
	// reporting (extending the soak up to twice when it cannot), deploys
	// blocked by a down node retry twice with backoff, and any number of
	// converted nodes may be down without halting the campaign.
	ScenarioCrashStorm = "crash-storm"
	// ScenarioCrashStormBad rolls out the botched no-buffer candidate
	// into the same crash storm, striking during the canary soak. The
	// quorum gate does not mask real degradation: the surviving
	// canaries' actuator safeguards still trip the gate and the
	// campaign rolls back with the same failure class as a fault-free
	// bad-variant run — crashes change availability, not the verdict.
	ScenarioCrashStormBad = "crash-storm-bad"
)

// scenarioFiles holds the built-in scenarios, one manifest per name.
//
//go:embed scenarios/*.json
var scenarioFiles embed.FS

// Scenarios lists the built-in scenario names.
func Scenarios() []string {
	ents, _ := scenarioFiles.ReadDir("scenarios") // embedded at build time: cannot fail
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = strings.TrimSuffix(e.Name(), ".json")
	}
	return names
}

// ScenarioManifest parses the embedded manifest of the named built-in
// scenario: a 100-node, one-minute run on seed 1 over the standard
// co-location, 5 s epochs, and the canonical wave plan.
func ScenarioManifest(name string) (*Manifest, error) {
	data, err := scenarioFiles.ReadFile("scenarios/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("controlplane: unknown scenario %q (have %v)", name, Scenarios())
	}
	return ParseManifest(data)
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
	// Seed varies workloads, the cohort shuffle and the crashed set.
	Seed uint64
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Shards partitions the fleet into that many independently
	// advancing shards (see internal/shard); 0 means 1.
	Shards int
}

// manifest loads the scenario's embedded manifest with sc's sizing
// applied over it.
func (sc ScenarioSpec) manifest() (*Manifest, error) {
	m, err := ScenarioManifest(sc.Scenario)
	if err != nil {
		return nil, err
	}
	m.Nodes, m.Duration, m.Kinds = sc.Nodes, spec.Duration(sc.Duration), sc.Kinds
	m.Seed, m.Campaign.Seed = sc.Seed, sc.Seed
	m.Workers, m.Shards = sc.Workers, sc.Shards
	if sc.Interval > 0 {
		m.Interval = spec.Duration(sc.Interval)
	}
	if sc.Waves != nil {
		m.Campaign.Waves = sc.Waves
	}
	if sc.SoakEpochs != 0 {
		m.Campaign.SoakEpochs = sc.SoakEpochs
	}
	return m, nil
}

// NewScenario builds the ready-to-Run config for sc. The campaigns it
// returns are fully declarative: the candidate is an agent spec whose
// params overlay the fleet's per-node baseline, so conversion changes
// only the knobs under study and rollback (the implicit nil baseline)
// restores exactly the variant StandardNode launched.
func NewScenario(sc ScenarioSpec) (Config, error) {
	m, err := sc.manifest()
	if err != nil {
		return Config{}, err
	}
	return m.Config()
}
