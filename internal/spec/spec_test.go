package spec_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"sol/internal/agents/harvest"
	"sol/internal/agents/memory"
	"sol/internal/agents/overclock"
	"sol/internal/agents/sampler"
	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/fleet"
	"sol/internal/spec"
	"sol/internal/telemetry"
)

var testEpoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

const paramsGoldenPath = "testdata/params.golden.json"

var updateParamsGolden = flag.Bool("update", false, "rewrite "+paramsGoldenPath+" from this tree")

// TestRegistryKinds: importing the agent packages registers all four
// kinds.
func TestRegistryKinds(t *testing.T) {
	t.Parallel()
	got := spec.Kinds()
	for _, kind := range []string{overclock.Kind, harvest.Kind, memory.Kind, sampler.Kind} {
		found := false
		for _, k := range got {
			if k == kind {
				found = true
			}
		}
		if !found {
			t.Fatalf("kind %q not registered (have %v)", kind, got)
		}
	}
	if _, err := spec.Resolve(spec.Agent{Kind: "no-such-kind"}); err == nil {
		t.Fatal("unknown kind resolved")
	}
	if _, err := spec.Resolve(spec.Agent{}); err == nil {
		t.Fatal("empty kind resolved")
	}
}

func TestDurationJSON(t *testing.T) {
	t.Parallel()
	out, err := json.Marshal(spec.Duration(1500 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `"1.5s"` {
		t.Fatalf("marshal = %s, want \"1.5s\"", out)
	}
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{`"5s"`, 5 * time.Second},
		{`"100ms"`, 100 * time.Millisecond},
		{`45000000000`, 45 * time.Second}, // plain nanoseconds
	} {
		var d spec.Duration
		if err := json.Unmarshal([]byte(tc.in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", tc.in, err)
		}
		if d.D() != tc.want {
			t.Fatalf("unmarshal %s = %v, want %v", tc.in, d.D(), tc.want)
		}
	}
	for _, bad := range []string{`"5 parsecs"`, `true`, `{"a":1}`} {
		var d spec.Duration
		if err := json.Unmarshal([]byte(bad), &d); err == nil {
			t.Fatalf("bad duration %s accepted", bad)
		}
	}
}

// TestScheduleMirror: core.Schedule survives the round trip through
// the serializable mirror.
func TestScheduleMirror(t *testing.T) {
	t.Parallel()
	want := harvest.Schedule()
	if got := spec.ScheduleOf(want).Core(); got != want {
		t.Fatalf("schedule mirror round trip drifted:\n%+v\nvs\n%+v", got, want)
	}
}

// TestOptionsApply: the serializable flags replace, the hooks survive.
func TestOptionsApply(t *testing.T) {
	t.Parallel()
	hookRan := false
	base := core.Options{
		Blocking:   true,
		ModelDelay: func(time.Time) time.Duration { hookRan = true; return 0 },
	}
	got := spec.Options{DisableModelSafeguard: true}.Apply(base)
	if got.Blocking || !got.DisableModelSafeguard {
		t.Fatalf("flags not replaced: %+v", got)
	}
	if got.ModelDelay == nil {
		t.Fatal("environment hook dropped")
	}
	got.ModelDelay(time.Time{})
	if !hookRan {
		t.Fatal("preserved hook is not the environment's")
	}
}

// TestResolveParams covers the overlay pipeline: registered defaults,
// an environment baseline, partial params, variant naming, schedule
// replacement, and strict rejection of unknown fields.
func TestResolveParams(t *testing.T) {
	t.Parallel()
	r, err := spec.Resolve(spec.Agent{Kind: harvest.Kind})
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Params(spec.NodeEnv{})
	if err != nil {
		t.Fatal(err)
	}
	v := *p.(*harvest.Variant)
	if want := harvest.DefaultVariant("primary", "elastic"); v != want {
		t.Fatalf("default params = %+v, want %+v", v, want)
	}

	// A seeded fleet's baseline carries a seed the defaults do not, so
	// an overlay that reset the fields it does not name would show.
	env := fleet.StandardNodeConfig{Seed: 1000}.BaselineEnv(3)
	base := *env.Base(harvest.Kind).(*harvest.Variant)
	if base.Config.Seed == v.Config.Seed {
		t.Fatalf("baseline seed %d equals the default's; the overlay check below would prove nothing", base.Config.Seed)
	}
	sched := spec.ScheduleOf(harvest.Schedule())
	sched.MaxActuationDelay = spec.Duration(200 * time.Millisecond)
	r, err = spec.Resolve(spec.Agent{
		Kind:     harvest.Kind,
		Variant:  "slow-lane",
		Params:   json.RawMessage(`{"Config": {"SafetyBuffer": 5}}`),
		Schedule: &sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err = r.Params(env)
	if err != nil {
		t.Fatal(err)
	}
	v = *p.(*harvest.Variant)
	if v.Name != "slow-lane" || v.Config.SafetyBuffer != 5 {
		t.Fatalf("overrides not applied: %+v", v)
	}
	if v.Config.Seed != base.Config.Seed {
		t.Fatalf("overlay clobbered the unnamed seed: %+v", v.Config)
	}
	if v.Schedule.MaxActuationDelay != 200*time.Millisecond {
		t.Fatalf("schedule override not applied: %+v", v.Schedule)
	}

	// Unknown params fields are author typos, not extensions.
	r, err = spec.Resolve(spec.Agent{Kind: harvest.Kind, Params: json.RawMessage(`{"SafetyBufer": 2}`)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Params(env); err == nil || !strings.Contains(err.Error(), "SafetyBufer") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestAgentValidate(t *testing.T) {
	t.Parallel()
	good := spec.Agent{Kind: overclock.Kind, Params: json.RawMessage(`{"Config": {"Lambda": 0.05}}`)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []spec.Agent{
		{},
		{Kind: "no-such-kind"},
		{Kind: overclock.Kind, Params: json.RawMessage(`{"Config": {"Lambda": "high"}}`)},
		{Kind: overclock.Kind, Params: json.RawMessage(`not json`)},
		{Kind: overclock.Kind, Schedule: &spec.Schedule{DataPerEpoch: -1}},
		// An invalid schedule smuggled through the params overlay must
		// fail at validation, not at the canary deploy.
		{Kind: overclock.Kind, Params: json.RawMessage(`{"Schedule": {"MaxActuationDelay": -1000}}`)},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, a)
		}
	}
}

// TestAgentJSONRoundTrip: a spec survives marshal/unmarshal intact,
// raw params included.
func TestAgentJSONRoundTrip(t *testing.T) {
	t.Parallel()
	sched := spec.ScheduleOf(sampler.Schedule())
	in := spec.Agent{
		Kind:     sampler.Kind,
		Variant:  "wide-audit",
		Params:   json.RawMessage(`{"Config":{"MissThreshold":0.25}}`),
		Schedule: &sched,
		Options:  &spec.Options{DisableActuatorSafeguard: true},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out spec.Agent
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip drifted:\n%+v\nvs\n%+v", in, out)
	}
}

// TestResolvedParamsGolden pins the params an empty spec resolves to
// for every built-in kind, on node 0 of a Seed-0 fleet and node 5 of a
// Seed-7 fleet, with the fleet's per-node baseline (NodeEnv.Base) and
// without it. Without a baseline the kind's registered defaults apply
// on any node, so a kind's two "defaults" rows are equal: per-node
// seeds come only from the fleet's baseline, in the "base" rows.
// -update rewrites the golden.
func TestResolvedParamsGolden(t *testing.T) {
	t.Parallel()
	got := make(map[string]json.RawMessage)
	for _, kind := range []string{overclock.Kind, harvest.Kind, memory.Kind, sampler.Kind} {
		for _, at := range []struct {
			seed uint64
			node int
		}{{0, 0}, {7, 5}} {
			base := fleet.StandardNodeConfig{Seed: at.seed}.BaselineEnv(at.node)
			bare := base
			bare.Base = nil
			for _, c := range []struct {
				name string
				env  spec.NodeEnv
			}{{"base", base}, {"defaults", bare}} {
				r, err := spec.Resolve(spec.Agent{Kind: kind})
				if err != nil {
					t.Fatal(err)
				}
				p, err := r.Params(c.env)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(p)
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s seed=%d node=%d %s", kind, at.seed, at.node, c.name)] = raw
			}
		}
	}
	out, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *updateParamsGolden {
		if err := os.WriteFile(paramsGoldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(paramsGoldenPath)
	if err != nil {
		t.Fatalf("%s: %v (run go test ./internal/spec -run TestResolvedParamsGolden -update)", paramsGoldenPath, err)
	}
	if string(out) != string(want) {
		t.Fatalf("resolved params drifted from %s; got:\n%s", paramsGoldenPath, out)
	}
}

// TestLaunchOnEnv launches a sampler spec against a bare environment
// (clock + telemetry substrate, no fleet) and checks the agent runs.
func TestLaunchOnEnv(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(testEpoch)
	src, err := telemetry.New(clk, telemetry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	defer src.Stop()

	h, deadline, err := spec.Launch(spec.Agent{Kind: sampler.Kind}, spec.NodeEnv{
		Clock:     clk,
		Telemetry: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	if want := sampler.Schedule().MaxActuationDelay; deadline != want {
		t.Fatalf("deadline = %v, want %v", deadline, want)
	}
	clk.RunFor(30 * time.Second)
	st := h.Stats()
	if st.DataCollected == 0 || st.Actions == 0 {
		t.Fatalf("spec-launched agent inactive: %+v", st)
	}
	// The memory kind needs its substrate; this env has none.
	if _, _, err := spec.Launch(spec.Agent{Kind: memory.Kind}, spec.NodeEnv{Clock: clk}); err == nil {
		t.Fatal("memory spec launched without a substrate")
	}
}
