package controlplane

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sol/internal/spec"
	"sol/internal/taxonomy"
)

// testSpec is the shared small-fleet scenario shape: only the campaign
// kind co-located, fixed seed, the horizon each scenario needs (the
// healthy plan completes at 40 s; the failing plans roll back at 10 s
// and 30 s), and a fleet halved under -short for the race detector.
func testSpec(scenario string, workers int) ScenarioSpec {
	nodes := 16
	if testing.Short() {
		nodes = 8
	}
	dur := map[string]time.Duration{ScenarioBadVariant: 30 * time.Second, ScenarioFaultStorm: 35 * time.Second}[scenario]
	if dur == 0 {
		dur = 45 * time.Second
	}
	return ScenarioSpec{
		Scenario: scenario,
		Nodes:    nodes,
		Duration: dur,
		Interval: 5 * time.Second,
		Kinds:    []string{"harvest"},
		Seed:     1,
		Workers:  workers,
	}
}

func runScenario(t *testing.T, scenario string, workers int) *Report {
	t.Helper()
	cfg, err := NewScenario(testSpec(scenario, workers))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGateChecks exercises every gate check synthetically: the class
// it names, the §3.2 check order, disabled checks, and the vacuous
// empty-cohort pass.
func TestGateChecks(t *testing.T) {
	t.Parallel()
	g := DefaultGate()
	if res := g.Check(CohortHealth{}); !res.OK {
		t.Fatalf("empty cohort failed the gate: %+v", res)
	}
	healthy := CohortHealth{Agents: 10, DataCollected: 1000, DeadlineEligible: 10, DeadlineMet: 10}
	if res := g.Check(healthy); !res.OK {
		t.Fatalf("healthy cohort failed the gate: %+v", res)
	}
	cases := []struct {
		name string
		mut  func(*CohortHealth)
		want taxonomy.FailureClass
	}{
		{"rejected data", func(h *CohortHealth) { h.DataRejected = 600 }, taxonomy.FailureBadData},
		{"model failing", func(h *CohortHealth) { h.ModelFailing = 4 }, taxonomy.FailureInaccurateModel},
		{"violations", func(h *CohortHealth) { h.ScheduleViolations = 50 }, taxonomy.FailureSchedulingDelay},
		{"deadline", func(h *CohortHealth) { h.DeadlineMet = 8 }, taxonomy.FailureSchedulingDelay},
		{"halted", func(h *CohortHealth) { h.Halted = 1 }, taxonomy.FailureEnvironment},
		{"triggers", func(h *CohortHealth) { h.ActuatorTriggers = 2 }, taxonomy.FailureEnvironment},
	}
	for _, tc := range cases {
		h := healthy
		tc.mut(&h)
		res := g.Check(h)
		if res.OK {
			t.Fatalf("%s: gate passed %+v", tc.name, h)
		}
		if res.Class != tc.want {
			t.Fatalf("%s: class = %s, want %s (reason %q)", tc.name, res.Class, tc.want, res.Reason)
		}
		if res.Reason == "" {
			t.Fatalf("%s: tripped gate has no reason", tc.name)
		}
	}
	// Check order follows §3.2: with every signal bad at once, bad
	// input data is named first.
	everything := healthy
	for _, tc := range cases {
		tc.mut(&everything)
	}
	if res := g.Check(everything); res.Class != taxonomy.FailureBadData {
		t.Fatalf("multi-failure cohort classified %s, want bad-input-data first", res.Class)
	}
	// Negative thresholds disable checks; the zero value tolerates
	// nothing.
	off := Gate{MaxRejectedFrac: -1, MaxViolationsPerAgent: -1, MaxModelFailingFrac: -1, MaxHaltedFrac: -1, MaxTriggersPerAgent: -1}
	if res := off.Check(everything); !res.OK {
		t.Fatalf("fully disabled gate tripped: %+v", res)
	}
	strict := Gate{}
	if res := strict.Check(CohortHealth{Agents: 100, Halted: 1}); res.OK || res.Class != taxonomy.FailureEnvironment {
		t.Fatalf("zero-value gate tolerated a halt: %+v", res)
	}
}

func TestCohortSize(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		frac  float64
		nodes int
		want  int
	}{
		{0.01, 16, 1}, {0.05, 16, 1}, {0.25, 16, 4}, {1, 16, 16},
		{0.01, 100, 1}, {0.05, 100, 5}, {0.001, 10, 1}, {0.5, 3, 2},
		// 0.07 x 100 rounds one ULP above 7 in float64; the blast
		// radius must still be 7 nodes, not 8.
		{0.07, 100, 7}, {0.29, 100, 29}, {1, 3, 3},
	} {
		if got := cohortSize(tc.frac, tc.nodes); got != tc.want {
			t.Fatalf("cohortSize(%v, %d) = %d, want %d", tc.frac, tc.nodes, got, tc.want)
		}
	}
}

// TestHealthyRolloutCompletes drives the healthy scenario end to end:
// every wave passes its gate and the whole fleet converts.
func TestHealthyRolloutCompletes(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, ScenarioHealthy, 0)
	if !rep.Completed || rep.RolledBack {
		t.Fatalf("healthy campaign did not complete:\n%s", rep)
	}
	n := rep.Nodes
	if rep.Converted != n || rep.MaxConverted != n {
		t.Fatalf("healthy campaign converted %d/%d nodes, want %d/%d", rep.Converted, rep.MaxConverted, n, n)
	}
	if rep.Failure != taxonomy.FailureNone {
		t.Fatalf("healthy campaign recorded failure %s", rep.Failure)
	}
	// The wave plan is 1% -> 5% -> 25% -> 100%; conversion events must
	// show the ceiling cohort sizes, each preceded by a pass of the
	// previous wave.
	var converts []int
	for _, ev := range rep.Trace {
		if ev.Action == ActionConvert {
			converts = append(converts, ev.Converted)
		}
	}
	want := make([]int, len(rep.Waves))
	for i, w := range rep.Waves {
		want[i] = cohortSize(w, n)
	}
	if !reflect.DeepEqual(converts, want) {
		t.Fatalf("conversion cohort sizes = %v, want %v", converts, want)
	}
	last := rep.Trace[len(rep.Trace)-1]
	if last.Action != ActionComplete || last.Health.Agents != n {
		t.Fatalf("trace does not end with a %d-agent complete event: %+v", n, last)
	}
	if last.Health.DeadlineMet != last.Health.DeadlineEligible || last.Health.DeadlineEligible == 0 {
		t.Fatalf("converted fleet missed actuation deadlines: %s", last.Health)
	}
}

// TestBadVariantRollsBackAtCanary is the blast-radius guarantee: the
// botched variant is caught by the first gate, the converted cohort
// never exceeds the canary fraction, and after automatic rollback the
// fleet's health at the horizon matches a run that never had a
// campaign at all.
func TestBadVariantRollsBackAtCanary(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, ScenarioBadVariant, 0)
	if !rep.RolledBack || rep.Completed {
		t.Fatalf("bad-variant campaign was not rolled back:\n%s", rep)
	}
	if rep.FailureWave != 1 {
		t.Fatalf("gate failed at wave %d, want the canary wave 1:\n%s", rep.FailureWave, rep)
	}
	canary := cohortSize(rep.Waves[0], rep.Nodes)
	if rep.MaxConverted != canary {
		t.Fatalf("blast radius %d nodes, want the canary cohort %d", rep.MaxConverted, canary)
	}
	for _, ev := range rep.Trace {
		if ev.Converted > canary {
			t.Fatalf("trace shows %d converted nodes, beyond the canary %d: %+v", ev.Converted, canary, ev)
		}
	}
	if rep.Converted != 0 {
		t.Fatalf("%d nodes still converted after rollback", rep.Converted)
	}
	if rep.Failure == taxonomy.FailureNone || rep.FailureReason == "" {
		t.Fatalf("rollback does not name its failure: class %q, reason %q", rep.Failure, rep.FailureReason)
	}
	// The no-buffer harvester both under-predicts (model safeguard)
	// and puts vCPU wait on the primary (actuator safeguard); the gate
	// names the first §3.2 class that tripped.
	if rep.Failure != taxonomy.FailureInaccurateModel && rep.Failure != taxonomy.FailureEnvironment {
		t.Fatalf("bad variant classified %s, want inaccurate-model or environment-interference", rep.Failure)
	}

	// Post-rollback equivalence: the same fleet with no campaign.
	cfg, err := NewScenario(testSpec(ScenarioBadVariant, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Campaign = nil
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range base.Fleet.KindNames() {
		b, c := base.Fleet.Kinds[kind], rep.Fleet.Kinds[kind]
		if c == nil || b.Halted != c.Halted || b.ModelFailing != c.ModelFailing {
			t.Fatalf("%s: post-rollback health (halted %d, failing %d) diverges from no-campaign baseline (halted %d, failing %d)",
				kind, c.Halted, c.ModelFailing, b.Halted, b.ModelFailing)
		}
	}
}

// TestFaultStormRollsBackAtWaveThree checks the scheduling-delay storm
// scenario: earlier waves pass, the storm trips the wave-3 gate on
// schedule violations (named with the scheduling-delay class), and —
// the paper's central property — the converted cohort still met every
// actuation deadline through the storm, because the decoupled actuator
// never waits on the delayed model loop.
func TestFaultStormRollsBackAtWaveThree(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, ScenarioFaultStorm, 0)
	if !rep.RolledBack {
		t.Fatalf("fault-storm campaign was not rolled back:\n%s", rep)
	}
	if rep.FailureWave != 3 {
		t.Fatalf("gate failed at wave %d, want 3 (the storm window):\n%s", rep.FailureWave, rep)
	}
	if rep.Failure != taxonomy.FailureSchedulingDelay {
		t.Fatalf("storm classified %s, want scheduling-delay", rep.Failure)
	}
	for _, ev := range rep.Trace {
		if ev.Action != ActionFail {
			continue
		}
		if ev.Health.ScheduleViolations == 0 {
			t.Fatalf("failed gate saw no schedule violations: %s", ev.Health)
		}
		if ev.Health.DeadlineEligible == 0 || ev.Health.DeadlineMet != ev.Health.DeadlineEligible {
			t.Fatalf("actuation deadlines were missed during the storm (%s) — the decoupled actuator must keep acting", ev.Health)
		}
	}
}

// TestCampaignDeterminism is the determinism contract: the same
// campaign config produces byte-identical wave traces and reports,
// run after run and across worker-pool widths.
func TestCampaignDeterminism(t *testing.T) {
	t.Parallel()
	serial := runScenario(t, ScenarioFaultStorm, 1)
	parallel := runScenario(t, ScenarioFaultStorm, 4)
	again := runScenario(t, ScenarioFaultStorm, 4)
	if !reflect.DeepEqual(serial.Trace, parallel.Trace) {
		t.Fatalf("wave traces diverged between 1 and 4 workers:\n%+v\nvs\n%+v", serial.Trace, parallel.Trace)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("reports diverged between 1 and 4 workers:\n%s\nvs\n%s", serial, parallel)
	}
	if parallel.String() != again.String() {
		t.Fatalf("reports diverged across identical runs:\n%s\nvs\n%s", parallel, again)
	}
}

// TestConfigValidation covers the config and campaign error paths.
func TestConfigValidation(t *testing.T) {
	t.Parallel()
	ok, err := NewScenario(testSpec(ScenarioHealthy, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScenario(ScenarioSpec{Scenario: "nope", Nodes: 1, Duration: time.Second}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	twoWaves := testSpec(ScenarioFaultStorm, 0)
	twoWaves.Waves = []float64{0.5, 1}
	if _, err := NewScenario(twoWaves); err == nil || !strings.Contains(err.Error(), "has 2 waves") {
		t.Fatalf("fault-storm with two waves: err = %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"zero interval", func(c *Config) { c.Interval = 0 }},
		{"no name", func(c *Config) { c.Campaign.Name = "" }},
		{"no targets", func(c *Config) { c.Campaign.Targets = nil }},
		{"no candidate kind", func(c *Config) { c.Campaign.Targets = []Target{{}} }},
		{"unregistered kind", func(c *Config) {
			c.Campaign.Targets = []Target{{Candidate: spec.Agent{Kind: "no-such-kind"}}}
		}},
		{"bad candidate params", func(c *Config) {
			c.Campaign.Targets = []Target{{Candidate: spec.Agent{Kind: "harvest", Params: json.RawMessage(`{"Typo": 1}`)}}}
		}},
		{"mismatched baseline kind", func(c *Config) {
			c.Campaign.Targets = []Target{{
				Candidate: spec.Agent{Kind: "harvest"},
				Baseline:  &spec.Agent{Kind: "overclock"},
			}}
		}},
		{"duplicate target kind", func(c *Config) {
			c.Campaign.Targets = append(c.Campaign.Targets, c.Campaign.Targets[0])
		}},
		{"no soak", func(c *Config) { c.Campaign.SoakEpochs = 0 }},
		{"no waves", func(c *Config) { c.Campaign.Waves = nil }},
		{"waves not increasing", func(c *Config) { c.Campaign.Waves = []float64{0.5, 0.5} }},
		{"wave beyond 1", func(c *Config) { c.Campaign.Waves = []float64{0.5, 1.5} }},
		{"NaN wave", func(c *Config) { c.Campaign.Waves = []float64{math.NaN(), 1} }},
	} {
		cfg := ok
		camp := *ok.Campaign
		camp.Targets = append([]Target(nil), camp.Targets...)
		cfg.Campaign = &camp
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: invalid config accepted", tc.name)
		}
	}
	// A campaign for a kind no node runs would pass every gate
	// vacuously and claim completion; it must be refused up front.
	// The sampler kind is registered but not co-located on this fleet.
	cfg := ok
	camp := *ok.Campaign
	camp.Targets = []Target{{Candidate: spec.Agent{Kind: "sampler"}}}
	cfg.Campaign = &camp
	cfg.Fleet.Nodes = 2
	cfg.Fleet.Duration = 45 * time.Second
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "no node runs it") {
		t.Fatalf("campaign for an absent kind not refused: %v", err)
	}
}

// TestReportRendering spot-checks the trace table and verdict lines.
func TestReportRendering(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, ScenarioBadVariant, 0)
	out := rep.String()
	for _, want := range []string{
		"campaign \"no-buffer-harvester\" on kind harvest",
		"convert", "fail", "rollback",
		"outcome: rolled back at wave 1/4",
		fmt.Sprintf("fleet: %d nodes", rep.Nodes),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, rep.Failure.String()) {
		t.Fatalf("report does not name the failure class %s:\n%s", rep.Failure, out)
	}
}
