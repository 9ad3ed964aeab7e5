package controlplane

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"sol/internal/faults"
	"sol/internal/spec"
)

const exampleManifest = "../../examples/rollout/manifest.json"

// TestManifestRoundTrip: the checked-in example manifest survives
// JSON → Manifest → JSON without losing information — the re-marshaled
// form is a fixpoint, and the two forms drive byte-identical rollouts.
func TestManifestRoundTrip(t *testing.T) {
	t.Parallel()
	m1, err := LoadManifest(exampleManifest)
	if err != nil {
		t.Fatal(err)
	}
	data1, err := json.Marshal(m1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ParseManifest(data1)
	if err != nil {
		t.Fatalf("re-parsing the marshaled manifest: %v", err)
	}
	data2, err := json.Marshal(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("marshal is not a fixpoint:\n%s\nvs\n%s", data1, data2)
	}
	// Loading resolves the declarative defaults explicitly.
	if !reflect.DeepEqual(m1.Campaign.Waves, DefaultWaves()) {
		t.Fatalf("absent waves = %v, want DefaultWaves", m1.Campaign.Waves)
	}
	if m1.Campaign.SoakEpochs != DefaultSoakEpochs || m1.Campaign.Gate != DefaultGate() {
		t.Fatalf("absent soak/gate not defaulted: %+v", m1.Campaign)
	}
	if got := m1.Campaign.Kinds(); !reflect.DeepEqual(got, []string{"harvest", "overclock"}) {
		t.Fatalf("target kinds = %v", got)
	}

	// Losslessness in behaviour, not just bytes: both forms produce
	// the same rollout.
	cfg1, err := m1.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := m2.Config()
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.String() != rep2.String() {
		t.Fatalf("round-tripped manifest rollout diverged:\n%s\nvs\n%s", rep1, rep2)
	}
}

// TestManifestCampaignDeterminism drives the example multi-kind
// manifest end to end: the shared gate catches the bad harvest member
// at the canary, both kinds roll back together, and the trace is
// byte-identical across runs and worker widths.
func TestManifestCampaignDeterminism(t *testing.T) {
	t.Parallel()
	run := func(workers int) *Report {
		m, err := LoadManifest(exampleManifest)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		cfg, err := m.Config()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(4)
	again := run(4)
	if serial.String() != parallel.String() || parallel.String() != again.String() {
		t.Fatalf("manifest rollout diverged across runs/widths:\n%s\nvs\n%s\nvs\n%s", serial, parallel, again)
	}

	rep := serial
	if !rep.RolledBack || rep.Completed {
		t.Fatalf("example manifest campaign was not rolled back:\n%s", rep)
	}
	if rep.FailureWave != 1 {
		t.Fatalf("shared gate failed at wave %d, want the canary wave 1:\n%s", rep.FailureWave, rep)
	}
	if canary := cohortSize(rep.Waves[0], rep.Nodes); rep.MaxConverted != canary {
		t.Fatalf("blast radius %d nodes, want the canary cohort %d", rep.MaxConverted, canary)
	}
	if !reflect.DeepEqual(rep.Kinds, []string{"harvest", "overclock"}) {
		t.Fatalf("report kinds = %v", rep.Kinds)
	}
	// The cohort the shared gate judged pooled both kinds: two agents
	// on the one converted node.
	for _, ev := range rep.Trace {
		if ev.Action == ActionFail && ev.Health.Agents != 2 {
			t.Fatalf("shared gate judged %d agents, want the 2 co-located targets: %s", ev.Health.Agents, ev.Health)
		}
	}
	if !strings.Contains(rep.String(), "on kinds harvest+overclock") {
		t.Fatalf("report does not name both kinds:\n%s", rep)
	}
}

// TestManifestValidation covers the load-time error paths: structural
// problems and typos must fail at parse, not at the canary.
func TestManifestValidation(t *testing.T) {
	t.Parallel()
	if _, err := LoadManifest("no-such-file.json"); err == nil {
		t.Fatal("missing manifest file accepted")
	}
	base := func() string {
		return `{"nodes": 4, "duration": "10s", "kinds": ["harvest"],
			"campaign": {"name": "x", "targets": [{"candidate": {"kind": "harvest"}}]}}`
	}
	if _, err := ParseManifest([]byte(base())); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"not json":          `{`,
		"zero nodes":        `{"nodes": 0, "duration": "10s"}`,
		"missing duration":  `{"nodes": 4}`,
		"negative duration": `{"nodes": 4, "duration": "-10s"}`,
		"bad duration":      `{"nodes": 4, "duration": "fortnight"}`,
		"top-level typo":    `{"nodes": 4, "duration": "10s", "nodez": 5}`,
		"empty kinds":       `{"nodes": 4, "duration": "10s", "kinds": []}`,
		"negative workers":  `{"nodes": 4, "duration": "10s", "workers": -3}`,
		"negative regions":  `{"nodes": 4, "duration": "10s", "mem_regions": -2}`,
		"unknown kind":      `{"nodes": 4, "duration": "10s", "kinds": ["bogus"]}`,
		"repeated kind":     `{"nodes": 4, "duration": "10s", "kinds": ["harvest", "memory", "harvest"]}`,
		"campaign typo": `{"nodes": 4, "duration": "10s",
			"campaign": {"name": "x", "soaks": 3, "targets": [{"candidate": {"kind": "harvest"}}]}}`,
		"campaign without targets": `{"nodes": 4, "duration": "10s", "campaign": {"name": "x"}}`,
		"unknown target kind": `{"nodes": 4, "duration": "10s",
			"campaign": {"name": "x", "targets": [{"candidate": {"kind": "toaster"}}]}}`,
		"bad target params": `{"nodes": 4, "duration": "10s",
			"campaign": {"name": "x", "targets": [{"candidate": {"kind": "harvest", "params": {"Typo": 1}}}]}}`,
		"invalid schedule via params": `{"nodes": 4, "duration": "10s",
			"campaign": {"name": "x", "targets": [{"candidate": {"kind": "harvest",
				"params": {"Schedule": {"MaxActuationDelay": -1000}}}}]}}`,
	} {
		if _, err := ParseManifest([]byte(bad)); err == nil {
			t.Fatalf("%s: bad manifest accepted:\n%s", name, bad)
		}
	}
}

// TestManifestVersion pins the schema-evolution contract: version 0
// (absent) and the current version parse; anything newer than this
// binary speaks is rejected naming both versions, so a manifest from a
// future binary fails at load, not at the canary.
func TestManifestVersion(t *testing.T) {
	t.Parallel()
	withVersion := func(v string) string {
		return `{"version": ` + v + `, "nodes": 4, "duration": "10s", "kinds": ["harvest"],
			"campaign": {"name": "x", "targets": [{"candidate": {"kind": "harvest"}}]}}`
	}
	for _, ok := range []string{"1", "2", "3"} {
		if _, err := ParseManifest([]byte(withVersion(ok))); err != nil {
			t.Fatalf("version %s rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"4", "99", "-1"} {
		_, err := ParseManifest([]byte(withVersion(bad)))
		if err == nil {
			t.Fatalf("version %s accepted", bad)
		}
		if !strings.Contains(err.Error(), "version "+bad) || !strings.Contains(err.Error(), "3") {
			t.Fatalf("version error does not name the versions: %v", err)
		}
	}
	// The version survives a round trip.
	m, err := ParseManifest([]byte(withVersion("1")))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version":1`) {
		t.Fatalf("version lost in marshal: %s", data)
	}
}

// robustManifest is a version-2 manifest exercising every campaign
// robustness-policy field the v2 schema added.
const robustManifest = `{
  "version": 2,
  "nodes": 8,
  "duration": "30s",
  "kinds": ["harvest"],
  "campaign": {
    "name": "guarded",
    "targets": [{"candidate": {"kind": "harvest", "variant": "v2"}}],
    "quorum": 0.9,
    "max_soak_extends": 2,
    "deploy_retries": 3,
    "tolerate_down": -1
  }
}`

// TestManifestRobustPolicy pins the version-2 schema surface: the
// policy fields parse, survive a marshal round trip as a fixpoint,
// reach the campaign, and are version-gated — a version-1 manifest
// declaring any of them is rejected with a hint naming version 2, so
// an old binary's silent-ignore can never masquerade as the policy
// being in force.
func TestManifestRobustPolicy(t *testing.T) {
	t.Parallel()
	m, err := ParseManifest([]byte(robustManifest))
	if err != nil {
		t.Fatalf("robust manifest rejected: %v", err)
	}
	c := m.Campaign
	if c.Quorum != 0.9 || c.MaxSoakExtends != 2 || c.DeployRetries != 3 || c.TolerateDown != -1 {
		t.Fatalf("policy fields lost in parse: quorum %v, extends %d, retries %d, tolerate %d",
			c.Quorum, c.MaxSoakExtends, c.DeployRetries, c.TolerateDown)
	}
	if !c.robust() {
		t.Fatal("campaign with policy fields not recognized as robust")
	}

	// Marshal fixpoint: the decoded manifest re-encodes to a form that
	// decodes back to the same manifest, with every policy field intact.
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"version":2`, `"quorum":0.9`, `"max_soak_extends":2`, `"deploy_retries":3`, `"tolerate_down":-1`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("marshal lost %s:\n%s", want, data)
		}
	}
	again, err := ParseManifest(data)
	if err != nil {
		t.Fatalf("re-parse of marshaled manifest: %v", err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Fatalf("manifest is not a round-trip fixpoint:\n%+v\nvs\n%+v", m, again)
	}

	// Version gating: the same campaign without "version": 2 (absent or
	// explicit 1) is refused with the migration hint.
	for _, v := range []string{`"version": 1, `, ``} {
		downgraded := `{` + v + strings.TrimPrefix(robustManifest, "{\n  \"version\": 2,")
		_, err := ParseManifest([]byte(downgraded))
		if err == nil {
			t.Fatalf("robustness policy accepted without version 2:\n%s", downgraded)
		}
		for _, want := range []string{"guarded", `"version": 2`} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("gate error missing %q: %v", want, err)
			}
		}
	}

	// Typos in the policy fields still fail strict parse.
	if _, err := ParseManifest([]byte(strings.Replace(robustManifest, "tolerate_down", "tolerate_downn", 1))); err == nil {
		t.Fatal("policy-field typo accepted")
	}

	// The -plan dry run renders the policy line.
	plan, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "policy: quorum 90%, max soak extends 2, deploy retries 3, tolerate any down") {
		t.Fatalf("plan missing the policy line:\n%s", plan)
	}

	// A non-robust campaign renders no policy line (and needs no v2).
	plain, err := ParseManifest([]byte(`{"nodes": 4, "duration": "10s", "kinds": ["harvest"],
		"campaign": {"name": "x", "targets": [{"candidate": {"kind": "harvest"}}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := plain.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pp, "policy:") {
		t.Fatalf("policy line rendered for a policy-less campaign:\n%s", pp)
	}

	// Tolerate-down phrasing: 0 (halt on first) and N (tolerate N).
	halting := strings.Replace(robustManifest, `"tolerate_down": -1`, `"tolerate_down": 0`, 1)
	hm, err := ParseManifest([]byte(halting))
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hm.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hp, "halt on first down node") {
		t.Fatalf("plan missing halt phrasing:\n%s", hp)
	}
	bounded := strings.Replace(robustManifest, `"tolerate_down": -1`, `"tolerate_down": 2`, 1)
	bm, err := ParseManifest([]byte(bounded))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := bm.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bp, "tolerate 2 down") {
		t.Fatalf("plan missing bounded-tolerance phrasing:\n%s", bp)
	}
}

// TestManifestParamDrift is the strict-parse migration test: a stored
// manifest whose params no longer decode against the registered kind
// (here simulated by a field the kind never had) must fail naming the
// kind, the offending field, and the migration path.
func TestManifestParamDrift(t *testing.T) {
	t.Parallel()
	const drifted = `{"nodes": 4, "duration": "10s", "kinds": ["harvest"],
		"campaign": {"name": "x", "targets": [{"candidate": {
			"kind": "harvest", "params": {"Config": {"BurstBudget": 2}}}}]}}`
	_, err := ParseManifest([]byte(drifted))
	if err == nil {
		t.Fatal("drifted params accepted")
	}
	for _, want := range []string{"harvest", "BurstBudget", "migrate"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("drift error missing %q: %v", want, err)
		}
	}
}

// TestManifestShards checks the shards field: negative rejected,
// positive carried into the fleet config, and the example manifest
// rolled out under 4 shards is still caught at the canary — with one
// converted node per shard.
func TestManifestShards(t *testing.T) {
	t.Parallel()
	if _, err := ParseManifest([]byte(`{"nodes": 4, "duration": "10s", "shards": -1}`)); err == nil {
		t.Fatal("negative shards accepted")
	}
	m, err := LoadManifest(exampleManifest)
	if err != nil {
		t.Fatal(err)
	}
	m.Shards = 4
	cfg, err := m.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fleet.Shards != 4 {
		t.Fatalf("fleet shards = %d, want 4", cfg.Fleet.Shards)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RolledBack || rep.FailureWave != 1 {
		t.Fatalf("sharded manifest campaign not rolled back at the canary:\n%s", rep)
	}
	if rep.MaxConverted != 4 {
		t.Fatalf("blast radius = %d nodes, want 4 (one canary per shard)", rep.MaxConverted)
	}
	if rep.Shards != 4 || !strings.Contains(rep.String(), "4 shards") {
		t.Fatalf("report does not carry the shard count:\n%s", rep)
	}
}

// TestManifestPlan is the -plan dry run: the resolved node-0 delta
// between baseline and candidate for every target, produced without
// building a fleet, naming exactly the knobs the campaign changes.
func TestManifestPlan(t *testing.T) {
	t.Parallel()
	m, err := LoadManifest(exampleManifest)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// The bad harvester drops the 2-core fleet safety buffer and
	// flattens the 8:1 under-prediction cost; the overclock candidate
	// only raises the explore rate.
	for _, want := range []string{
		`campaign "no-buffer-harvester+hot-explore"`,
		"waves 1% -> 5% -> 25% -> 100%, soak 2 epochs of 5s",
		"target harvest, variant no-buffer-harvester",
		"Config.SafetyBuffer: 2 -> 0",
		"Config.UnderCost: 8 -> 1",
		"target overclock, variant hot-explore",
		"Config.ExploreRate: 0.1 -> 0.2",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
	// Knobs the overlay does not touch never appear as deltas: the
	// per-node seeds and the fleet-coarsened schedule survive.
	for _, reject := range []string{"Seed", "Schedule."} {
		if strings.Contains(plan, reject) {
			t.Fatalf("plan reports an untouched knob %q:\n%s", reject, plan)
		}
	}

	// A campaign-less manifest has nothing to plan.
	if _, err := (&Manifest{Nodes: 1, Duration: spec.Duration(time.Second)}).Plan(); err == nil {
		t.Fatal("campaign-less plan accepted")
	}

	// A plan must refuse what a run would refuse: a target kind the
	// manifest's co-location never launches.
	m.Kinds = []string{"overclock"}
	if _, err := m.Plan(); err == nil || !strings.Contains(err.Error(), `"harvest"`) {
		t.Fatalf("plan green-lit a kind the fleet never runs: %v", err)
	}
}

// faultsManifest is a version-3 manifest declaring both faults.
const faultsManifest = `{
  "version": 3,
  "nodes": 8,
  "duration": "30s",
  "kinds": ["harvest"],
  "campaign": {"name": "stormy", "targets": [{"candidate": {"kind": "harvest"}}]},
  "faults": {
    "crash": {"frac": 0.2, "wave": 3, "epochs": 0.5},
    "model_delay": {"wave": 2, "delay": "1s"}
  }
}`

// TestManifestFaults pins the version-3 faults surface: the section
// parses strictly, compiles to the lifecycle plan and model-delay hook
// at the instants its wave anchors name, is refused below version 3
// with the migration hint, and refuses anchors the wave plan lacks.
func TestManifestFaults(t *testing.T) {
	t.Parallel()
	m, err := ParseManifest([]byte(faultsManifest))
	if err != nil {
		t.Fatalf("faults manifest rejected: %v", err)
	}
	cfg, err := m.Config()
	if err != nil {
		t.Fatal(err)
	}
	// Wave 3 soaks from epoch 4 (two 2-epoch soaks before it): the
	// crash lands at 4.5 epochs of 5 s.
	crash, ok := cfg.Fleet.Lifecycle.(faults.Crash)
	if !ok || crash.At != 22500*time.Millisecond || crash.Frac != 0.2 || crash.Seed != crashStormSeed {
		t.Fatalf("crash fault compiled to %#v", cfg.Fleet.Lifecycle)
	}
	// The plan names both faults.
	plan, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"faults: crash 20% of nodes 0.5 epochs into wave 3's soak",
		"faults: model steps delayed 1s through wave 2's soak",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}

	for _, v := range []string{`"version": 2`, `"version": 1`, `"version": 0`} {
		old := strings.Replace(faultsManifest, `"version": 3`, v, 1)
		if _, err := ParseManifest([]byte(old)); err == nil || !strings.Contains(err.Error(), `declare "version": 3`) {
			t.Fatalf("faults under %s: err = %v, want the declare-version-3 hint", v, err)
		}
	}
	for name, tc := range map[string]struct{ from, to, want string }{
		"crash past the plan":       {`"wave": 3, "epochs"`, `"wave": 5, "epochs"`, "crash is anchored to wave 5"},
		"delay before the plan":     {`"wave": 2, "delay"`, `"wave": 0, "delay"`, "model_delay is anchored to wave 0"},
		"crash fraction zero":       {`"frac": 0.2`, `"frac": 0`, "frac = 0"},
		"crash fraction above one":  {`"frac": 0.2`, `"frac": 1.5`, "frac = 1.5"},
		"crash after the soak":      {`"epochs": 0.5`, `"epochs": 2`, "epochs = 2"},
		"crash before the soak":     {`"epochs": 0.5`, `"epochs": -1`, "epochs = -1"},
		"zero delay":                {`"delay": "1s"`, `"delay": "0s"`, "delay = 0s"},
		"fault typo":                {`"model_delay"`, `"model_dealy"`, "model_dealy"},
		"fault field typo":          {`"frac"`, `"fraction"`, "fraction"},
		"faults without a campaign": {`"campaign": {"name": "stormy", "targets": [{"candidate": {"kind": "harvest"}}]},`, ``, "no campaign"},
	} {
		bad := strings.Replace(faultsManifest, tc.from, tc.to, 1)
		if _, err := ParseManifest([]byte(bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want it to contain %q", name, err, tc.want)
		}
	}
	// A shorter wave plan strands the crash's anchor.
	m.Campaign.Waves = []float64{0.5, 1}
	if _, err := m.Config(); err == nil || !strings.Contains(err.Error(), "has 2 waves") {
		t.Fatalf("crash anchored past a two-wave plan: err = %v", err)
	}
}

// TestManifestFingerprint pins what the journal fingerprint covers:
// every field that shapes the campaign, and nothing that does not —
// the worker-pool width, and shards 0 against 1 (both one shard).
func TestManifestFingerprint(t *testing.T) {
	t.Parallel()
	load := func() *Manifest {
		m, err := ParseManifest([]byte(faultsManifest))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fingerprint := func(m *Manifest) string {
		fp, err := m.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	base := fingerprint(load())
	for _, tc := range []struct {
		name string
		mut  func(*Manifest)
		same bool
	}{
		{"shards 1", func(m *Manifest) { m.Shards = 1 }, true},
		{"workers", func(m *Manifest) { m.Workers = 8 }, true},
		{"shards 4", func(m *Manifest) { m.Shards = 4 }, false},
		{"nodes", func(m *Manifest) { m.Nodes++ }, false},
		{"duration", func(m *Manifest) { m.Duration += spec.Duration(time.Second) }, false},
		{"interval", func(m *Manifest) { m.Interval = spec.Duration(time.Second) }, false},
		{"kinds", func(m *Manifest) { m.Kinds = nil }, false},
		{"seed", func(m *Manifest) { m.Seed = 7 }, false},
		{"mem regions", func(m *Manifest) { m.MemRegions = 64 }, false},
		{"options", func(m *Manifest) { m.Options = &spec.Options{Blocking: true} }, false},
		{"campaign seed", func(m *Manifest) { m.Campaign.Seed = 7 }, false},
		{"waves", func(m *Manifest) { m.Campaign.Waves = []float64{0.1, 0.5, 0.75, 1} }, false},
		{"soak", func(m *Manifest) { m.Campaign.SoakEpochs = 3 }, false},
		{"gate", func(m *Manifest) { m.Campaign.Gate.MaxHaltedFrac = 0.5 }, false},
		{"target", func(m *Manifest) { m.Campaign.Targets[0].Candidate.Variant = "other" }, false},
		{"policy", func(m *Manifest) { m.Campaign.Quorum = 0.9 }, false},
		{"no campaign", func(m *Manifest) { m.Campaign = nil }, false},
		{"crash fraction", func(m *Manifest) { m.Faults.Crash.Frac = 0.3 }, false},
		{"crash wave", func(m *Manifest) { m.Faults.Crash.Wave = 2 }, false},
		{"crash offset", func(m *Manifest) { m.Faults.Crash.Epochs = 0 }, false},
		{"delay wave", func(m *Manifest) { m.Faults.ModelDelay.Wave = 3 }, false},
		{"delay", func(m *Manifest) { m.Faults.ModelDelay.Delay = spec.Duration(2 * time.Second) }, false},
		{"no faults", func(m *Manifest) { m.Faults = nil }, false},
	} {
		m := load()
		tc.mut(m)
		if got := fingerprint(m); (got == base) != tc.same {
			t.Errorf("%s: fingerprint %s vs base %s, want same = %v", tc.name, got, base, tc.same)
		}
	}
}

// FuzzParseManifest: the manifest decoder never panics, and every
// manifest it accepts survives Marshal → Parse with an equal
// fingerprint, so a journal's identity does not depend on which form
// of the manifest the run was loaded from. The checked-in corpus holds
// the embedded scenarios, the example manifest and the version-gate
// rejects.
func FuzzParseManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		fp, err := m.Fingerprint()
		if err != nil {
			t.Fatalf("accepted manifest has no fingerprint: %v", err)
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not marshal: %v", err)
		}
		again, err := ParseManifest(out)
		if err != nil {
			t.Fatalf("re-parsing the marshaled manifest: %v\n%s", err, out)
		}
		if fp2, err := again.Fingerprint(); err != nil || fp2 != fp {
			t.Fatalf("fingerprint %s became %s (%v) across Marshal → Parse:\n%s", fp, fp2, err, out)
		}
	})
}
