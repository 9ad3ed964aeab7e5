package fleet

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/spec"
)

// TestSteppedMatchesBatch is the lockstep driver's core contract: the
// same fleet config driven to the same horizon produces a report
// byte-identical to batch Run, whatever the epoch length. Lockstep
// observability must cost nothing in fidelity.
func TestSteppedMatchesBatch(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Nodes:    6,
		Duration: 4 * time.Second,
		Workers:  3,
		Setup:    StandardNode(StandardNodeConfig{Seed: 21}),
	}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, interval := range []time.Duration{time.Second, 700 * time.Millisecond, 4 * time.Second} {
		stepped, err := RunStepped(cfg, interval, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch, stepped) {
			t.Fatalf("interval %v: stepped report diverged from batch:\n%v\nvs\n%v",
				interval, batch, stepped)
		}
		if batch.String() != stepped.String() {
			t.Fatalf("interval %v: rendered reports differ", interval)
		}
	}
}

// TestSteppedObserveBarriers checks the observe hook fires once per
// epoch with the fleet quiescent and monotonically advancing time, and
// that its error aborts the run.
func TestSteppedObserveBarriers(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Nodes:    2,
		Duration: 2500 * time.Millisecond,
		Workers:  2,
		Setup:    StandardNode(StandardNodeConfig{Seed: 2, Kinds: []string{"overclock"}}),
	}
	var epochs []time.Duration
	_, err := RunStepped(cfg, time.Second, func(epoch int, c *Coordinator) error {
		if epoch != len(epochs)+1 {
			t.Fatalf("observe epoch %d out of order", epoch)
		}
		epochs = append(epochs, c.Elapsed())
		if n := len(c.Supervisor(0).Members()); n != 1 {
			t.Fatalf("epoch %d: node 0 has %d members, want 1", epoch, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 2500 * time.Millisecond}
	if !reflect.DeepEqual(epochs, want) {
		t.Fatalf("barrier times = %v, want %v (final epoch truncated to the horizon)", epochs, want)
	}

	boom := errors.New("gate tripped")
	_, err = RunStepped(cfg, time.Second, func(epoch int, c *Coordinator) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("observe error not propagated: %v", err)
	}
}

// TestSteppedReplaceDeadlineWindow pins the aggregation rule for
// members redeployed mid-run: a replacement's restarted Actions
// counter is judged against the deadline floor of its own lifetime,
// not the full horizon — otherwise every converted or rolled-back
// agent that acts near its floor would be misreported as
// non-compliant.
func TestSteppedReplaceDeadlineWindow(t *testing.T) {
	t.Parallel()
	a := testAgent(t, spec.Variant[testConfig]{Config: testConfig{TTL: time.Second}, Schedule: testSchedule})
	cfg := Config{
		Nodes:    1,
		Duration: 30 * time.Second,
		Setup: func(idx int, clk *clock.Virtual) (*Supervisor, error) {
			sup := NewSupervisor(spec.NodeEnv{Clock: clk})
			return sup, sup.LaunchSpec("agent", a)
		},
	}
	rep, err := RunStepped(cfg, 5*time.Second, func(epoch int, c *Coordinator) error {
		if epoch == 3 { // t=15s: redeploy with half the horizon left
			return c.Supervisor(0).ReplaceSpec("agent", a)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ks := rep.Kinds[testKind]
	if ks == nil || ks.DeadlineEligible != 1 {
		t.Fatalf("replaced agent not deadline-eligible: %+v", rep)
	}
	if ks.DeadlineMet != 1 {
		t.Fatalf("replaced agent judged against the full-horizon floor: %d actions vs floor %d over its 15s lifetime (report: %+v)",
			ks.Stats.Actions, (MemberStatus{MaxActuationDelay: testSchedule.MaxActuationDelay}).DeadlineFloor(15*time.Second), ks)
	}
}

// TestSupervisorReplaceConcurrent hammers ReplaceSpec for the same
// member from several goroutines on the real clock: replacements must
// serialize so that every agent ever launched is eventually stopped
// (by the next ReplaceSpec or by StopAll) — a lost race here would leak
// a live agent invisible to StopAll.
func TestSupervisorReplaceConcurrent(t *testing.T) {
	t.Parallel()
	sup := NewSupervisor(spec.NodeEnv{Clock: clock.NewReal()})
	log := newLaunchLog(t)
	a := testAgent(t, spec.Variant[testConfig]{
		Config: testConfig{TTL: 100 * time.Millisecond, Log: log.name},
		Schedule: core.Schedule{
			DataPerEpoch: 2, DataCollectInterval: 5 * time.Millisecond,
			MaxEpochTime: 50 * time.Millisecond, MaxActuationDelay: 20 * time.Millisecond,
		},
	})
	if err := sup.LaunchSpec("x", a); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if err := sup.ReplaceSpec("x", a); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sup.StopAll()
	if n := len(log.launched()); n != 21 {
		t.Fatalf("launched %d agents, want 21 (1 + 4x5 replacements)", n)
	}
	if n := log.leaked(); n != 0 {
		t.Fatalf("%d of 21 agents leaked: CleanUp never ran", n)
	}
}

// TestCoordinatorSetupError checks partial-fleet cleanup on a node
// setup failure.
func TestCoordinatorSetupError(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	std := StandardNode(StandardNodeConfig{Kinds: []string{"overclock"}})
	_, err := NewCoordinator(Config{
		Nodes:    4,
		Duration: time.Second,
		Workers:  2,
		Setup: func(idx int, clk *clock.Virtual) (*Supervisor, error) {
			if idx == 2 {
				return nil, boom
			}
			return std(idx, clk)
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("coordinator error = %v, want wrapped %v", err, boom)
	}
}

// TestSupervisorReplace exercises the rollout/rollback primitive: a
// member is redeployed in place, its counters restart, its kind, name,
// and attach position survive, and the old agent's CleanUp ran.
func TestSupervisorReplace(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(testEpoch)
	log := newLaunchLog(t)
	sup := colocate(t, clk, log.name)
	defer sup.StopAll()
	clk.RunFor(5 * time.Second)

	before := statusByName(sup.Status())
	if before["fast"].Stats.Actions == 0 {
		t.Fatal("fast took no actions before replacement")
	}

	// Replace "fast" with a slower variant of itself.
	err := sup.ReplaceSpec("fast", testAgent(t, spec.Variant[testConfig]{
		Config: testConfig{TTL: time.Second, Log: log.name},
		Schedule: core.Schedule{
			DataPerEpoch: 4, DataCollectInterval: 100 * time.Millisecond,
			MaxEpochTime: 800 * time.Millisecond, AssessModelEvery: 1,
			MaxActuationDelay: time.Second, AssessActuatorInterval: time.Second,
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	acts := log.launched()
	fast, repl := acts[0], acts[len(acts)-1]
	if fast.cleanups == 0 {
		t.Fatal("replaced member's CleanUp never ran")
	}

	clk.RunFor(5 * time.Second)
	after := sup.Status()
	if after[0].Name != "fast" || after[0].Kind != testKind {
		t.Fatalf("replacement lost attach position or identity: %+v", after[0])
	}
	if after[0].MaxActuationDelay != time.Second {
		t.Fatalf("replacement deadline = %v, want 1s", after[0].MaxActuationDelay)
	}
	st := after[0].Stats
	// The replacement's counters restarted at the replace instant and
	// it met its own (slower) deadline floor over the 5 s since.
	if st.Actions == 0 || st.Actions >= before["fast"].Stats.Actions {
		t.Fatalf("replacement actions = %d, want restarted count below predecessor's %d",
			st.Actions, before["fast"].Stats.Actions)
	}
	if st.Actions < (MemberStatus{MaxActuationDelay: time.Second}).DeadlineFloor(5*time.Second) {
		t.Fatalf("replacement missed its deadline floor: %d actions in 5s", st.Actions)
	}
	if repl.actions == 0 {
		t.Fatal("replacement actuator never acted")
	}

	// Error paths: unknown member; params that do not resolve, which
	// must leave the running member untouched; stopped supervisor.
	launches := len(log.launched())
	if err := sup.ReplaceSpec("nope", spec.Agent{Kind: testKind}); err == nil {
		t.Fatal("replace of unknown member accepted")
	}
	if err := sup.ReplaceSpec("fast", spec.Agent{Kind: testKind, Params: json.RawMessage(`{"Typo": 1}`)}); err == nil {
		t.Fatal("replace with undecodable params accepted")
	}
	if repl.cleanups != 0 {
		t.Fatal("a refused replace stopped the running member")
	}
	if n := len(log.launched()); n != launches {
		t.Fatalf("refused replaces launched %d agents", n-launches)
	}
	sup.StopAll()
	if err := sup.ReplaceSpec("fast", spec.Agent{Kind: testKind}); err == nil {
		t.Fatal("replace on stopped supervisor accepted")
	}
}
