package fleet

import (
	"encoding/json"
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
	"sol/internal/spec"
)

// TestReplaceSubstrateKinds is the redeploy capability PR 3 lacked:
// with substrates threaded through the node environment instead of
// being built inside launch closures, Supervisor.ReplaceSpec can
// rebuild the memory and sampler kinds — and the substrate, with its
// accumulated state, survives the swap.
func TestReplaceSubstrateKinds(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(testEpoch)
	sup, err := StandardNode(StandardNodeConfig{Seed: 3, Kinds: AllKinds, MemRegions: 32})(0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.StopAll()

	clk.RunFor(10 * time.Second)
	env := sup.Env()
	if env.Mem == nil || env.Telemetry == nil {
		t.Fatal("standard node env is missing its substrates")
	}
	memTicks := env.Mem.Ticks()
	telObserved := env.Telemetry.Snapshot().TotalEvents
	if memTicks == 0 || telObserved == 0 {
		t.Fatalf("substrates idle before replace: mem ticks %d, telemetry events %v", memTicks, telObserved)
	}

	// Redeploy memory with a recalibrated variant and sampler with the
	// environment baseline.
	err = sup.ReplaceSpec(memory.Kind, spec.Agent{
		Kind:    memory.Kind,
		Variant: "recalibrated",
		Params:  json.RawMessage(`{"Config": {"CoverageTarget": 0.9}}`),
	})
	if err != nil {
		t.Fatalf("replace memory kind: %v", err)
	}
	if err := sup.ReplaceSpec(sampler.Kind, spec.Agent{Kind: sampler.Kind}); err != nil {
		t.Fatalf("replace sampler kind: %v", err)
	}
	replacedAt := clk.Now()
	// SmartMemory's actuation deadline is 45 s; run past it so every
	// successor has acted at least once.
	clk.RunFor(50 * time.Second)

	// The substrate instances — and their accumulated state — survived.
	after := sup.Env()
	if after.Mem != env.Mem {
		t.Fatal("memory substrate was rebuilt by the replace")
	}
	if after.Telemetry != env.Telemetry {
		t.Fatal("telemetry substrate was rebuilt by the replace")
	}
	if got := after.Mem.Ticks(); got <= memTicks {
		t.Fatalf("memory substrate stopped ticking after replace: %d -> %d", memTicks, got)
	}
	if got := after.Telemetry.Snapshot().TotalEvents; got <= telObserved {
		t.Fatalf("telemetry substrate stopped after replace: %v -> %v", telObserved, got)
	}

	// The successors are fresh runtimes (counters restarted at the
	// replace instant) and actively managing their substrates.
	byName := statusByName(sup.Status())
	for _, kind := range []string{memory.Kind, sampler.Kind} {
		st, ok := byName[kind]
		if !ok {
			t.Fatalf("member %s missing after replace", kind)
		}
		if !st.Stats.StartedAt.Equal(replacedAt) {
			t.Fatalf("%s successor started at %v, want the replace instant %v", kind, st.Stats.StartedAt, replacedAt)
		}
		if st.Stats.DataCollected == 0 || st.Stats.Actions == 0 {
			t.Fatalf("%s successor inactive: collected %d, actions %d", kind, st.Stats.DataCollected, st.Stats.Actions)
		}
	}
	if members := sup.Members(); len(members) != 4 {
		t.Fatalf("member count changed across replace: %d, want 4", len(members))
	}
}

// TestLaunchSpecErrors covers the spec launch/replace error paths on a
// supervisor.
func TestLaunchSpecErrors(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(testEpoch)
	sup, err := StandardNode(StandardNodeConfig{Seed: 1})(0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.StopAll()

	if err := sup.LaunchSpec("x", spec.Agent{}); err == nil {
		t.Fatal("spec without kind accepted")
	}
	if err := sup.LaunchSpec("x", spec.Agent{Kind: "no-such-kind"}); err == nil {
		t.Fatal("unregistered kind accepted")
	}
	err = sup.LaunchSpec("x", spec.Agent{Kind: harvest.Kind, Params: json.RawMessage(`{"Typo": 1}`)})
	if err == nil || !strings.Contains(err.Error(), "Typo") {
		t.Fatalf("unknown params field not rejected: %v", err)
	}
	if err := sup.ReplaceSpec("absent", spec.Agent{Kind: harvest.Kind}); err == nil {
		t.Fatal("replace of an absent member accepted")
	}
	// A spec of one kind must not replace a member of another: the
	// member keeps its kind label, so every kind-keyed view would
	// misattribute the new agent's health.
	err = sup.ReplaceSpec(harvest.Kind, spec.Agent{Kind: overclock.Kind})
	if err == nil || !strings.Contains(err.Error(), "cannot be replaced") {
		t.Fatalf("cross-kind replace not rejected: %v", err)
	}
	// The standard node without the sampler kind has no telemetry
	// substrate; a sampler spec must be refused, not crash.
	if err := sup.LaunchSpec("sampler", spec.Agent{Kind: sampler.Kind}); err == nil {
		t.Fatal("sampler spec accepted on a node with no telemetry substrate")
	}
}

// TestSpecBaselineMatchesStandardNode pins the spec/closure
// equivalence StandardNode is built on: resolving an empty spec
// against a node's environment yields exactly the variant the node
// launched at setup.
func TestSpecBaselineMatchesStandardNode(t *testing.T) {
	t.Parallel()
	cfg := StandardNodeConfig{Seed: 9}
	clk := clock.NewVirtual(testEpoch)
	sup, err := StandardNode(cfg)(4, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.StopAll()

	r, err := spec.Resolve(spec.Agent{Kind: harvest.Kind})
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Params(sup.Env())
	if err != nil {
		t.Fatal(err)
	}
	got := *p.(*harvest.Variant)
	if want := *cfg.BaselineEnv(4).Base(harvest.Kind).(*harvest.Variant); got != want {
		t.Fatalf("spec-resolved baseline diverges from StandardNode's:\n%+v\nvs\n%+v", got, want)
	}
	// A partial overlay changes only the named knob.
	r, err = spec.Resolve(spec.Agent{
		Kind:    harvest.Kind,
		Variant: "buffer-3",
		Params:  json.RawMessage(`{"Config": {"SafetyBuffer": 3}}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err = r.Params(sup.Env())
	if err != nil {
		t.Fatal(err)
	}
	got = *p.(*harvest.Variant)
	want := *cfg.BaselineEnv(4).Base(harvest.Kind).(*harvest.Variant)
	want.Name = "buffer-3"
	want.Config.SafetyBuffer = 3
	if got != want {
		t.Fatalf("overlaid variant drifted beyond the named knob:\n%+v\nvs\n%+v", got, want)
	}
}

// TestSpecHandleIsAgent pins the deploy contract fault injection builds
// on: a spec-launched member's handle is its kind's *Agent, so a fleet
// member's Model and Actuator hooks are one type assertion away, and a
// fault injected through them shows in the member's runtime health.
func TestSpecHandleIsAgent(t *testing.T) {
	t.Parallel()
	c, err := NewCoordinator(Config{
		Nodes:    1,
		Duration: time.Hour,
		Workers:  1,
		Setup:    StandardNode(StandardNodeConfig{Seed: 1, Kinds: AllKinds, MemRegions: 32}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()

	var hv *harvest.Agent
	for _, m := range c.Supervisor(0).Members() {
		var ok bool
		switch m.Kind {
		case harvest.Kind:
			hv, ok = m.Handle.(*harvest.Agent)
		case overclock.Kind:
			_, ok = m.Handle.(*overclock.Agent)
		case memory.Kind:
			_, ok = m.Handle.(*memory.Agent)
		case sampler.Kind:
			_, ok = m.Handle.(*sampler.Agent)
		}
		if !ok {
			t.Fatalf("member %s: handle is %T, not its kind's *Agent", m.Name, m.Handle)
		}
	}
	if hv == nil {
		t.Fatal("standard node has no harvest member")
	}

	// Past the cold-start trip, the healthy model is trusted; breaking
	// it through the handle must trip the model safeguard again.
	c.StepFor(5 * time.Second)
	before := hv.Health()
	if before.ModelFailing {
		t.Fatal("healthy harvest model is failing its assessment")
	}
	hv.Model.Break(true)
	c.StepFor(5 * time.Second)
	if after := hv.Health(); after.ModelSafeguardTriggers <= before.ModelSafeguardTriggers || !after.ModelFailing {
		t.Fatalf("broken harvest model did not trip the model safeguard: triggers %d -> %d, failing %v",
			before.ModelSafeguardTriggers, after.ModelSafeguardTriggers, after.ModelFailing)
	}
}

// TestSpecHandleDrivesLiveModel: an agent's runtime drives the Model
// held inside its *Agent, not a copy, so a fault hook called through a
// spec-launched handle changes what the running runtime predicts. Two
// identical standard nodes run side by side; one has its member's
// model broken through the handle, and the first placement the broken
// model can change must differ from its healthy twin's.
func TestSpecHandleDrivesLiveModel(t *testing.T) {
	for _, tc := range []struct {
		kind string
		// warm runs both nodes before the break, step runs them after it.
		warm, step time.Duration
		brk        func(core.Handle)
		// actuated reads the knob the kind's actuator turns, and want is
		// what the broken model sets it to, where that is known.
		actuated func(*Supervisor) []int
		want     []int
	}{
		{
			// A broken SmartHarvest predicts zero cores, so after the next
			// 25 ms epoch the primary VM holds only the fleet's two-core
			// safety buffer.
			kind: harvest.Kind, warm: 5 * time.Second, step: 30 * time.Millisecond, want: []int{2},
			brk:      func(h core.Handle) { h.(*harvest.Agent).Model.Break(true) },
			actuated: func(s *Supervisor) []int { return []int{s.Env().Node.AvailableCores("primary")} },
		},
		{
			// A broken SmartOverclock predicts the top DVFS level for the
			// next 1 s epoch; its healthy twin's first choice is nominal.
			kind: overclock.Kind, step: 1050 * time.Millisecond, want: []int{2},
			brk:      func(h core.Handle) { h.(*overclock.Agent).Model.Break(true) },
			actuated: func(s *Supervisor) []int { return []int{s.Env().Node.FrequencyLevel("batch")} },
		},
		{
			// A broken SmartMemory selects the slowest scan arm at the
			// epoch it breaks in, so its rates — and the placement they
			// predict — change one 38.4 s epoch later.
			kind: memory.Kind, step: 77 * time.Second,
			brk: func(h core.Handle) { h.(*memory.Agent).Model.Break(true) },
			actuated: func(s *Supervisor) []int {
				mem := s.Env().Mem
				var tier2 []int
				for r := 0; r < mem.Regions(); r++ {
					if !mem.InTier1(r) {
						tier2 = append(tier2, r)
					}
				}
				return tier2
			},
		},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			t.Parallel()
			var sups [2]*Supervisor
			var clks [2]*clock.Virtual
			for i := range sups {
				clks[i] = clock.NewVirtual(testEpoch)
				sup, err := StandardNode(StandardNodeConfig{Seed: 1, MemRegions: 32})(0, clks[i])
				if err != nil {
					t.Fatal(err)
				}
				defer sup.StopAll()
				sups[i] = sup
				clks[i].RunFor(tc.warm)
			}
			if a, b := tc.actuated(sups[0]), tc.actuated(sups[1]); !reflect.DeepEqual(a, b) {
				t.Fatalf("twin nodes diverged before the break: %v vs %v", a, b)
			}
			for _, m := range sups[1].Members() {
				if m.Kind == tc.kind {
					tc.brk(m.Handle)
				}
			}
			for _, clk := range clks {
				clk.RunFor(tc.step)
			}
			healthy, broken := tc.actuated(sups[0]), tc.actuated(sups[1])
			if reflect.DeepEqual(healthy, broken) {
				t.Fatalf("breaking the %s model through its handle changed nothing: %v", tc.kind, broken)
			}
			if tc.want != nil && !reflect.DeepEqual(broken, tc.want) {
				t.Fatalf("broken %s model actuated %v, want %v (healthy twin: %v)", tc.kind, broken, tc.want, healthy)
			}
		})
	}
}
