package fleet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/faults"
	"sol/internal/spec"
)

// TestSupervisorCrashRestart walks one node through the full lifecycle
// by hand: crash kills the agent stack but not the substrate, restart
// relaunches every member from its recorded spec onto the surviving
// substrate, and the supervisor's lifecycle state tracks each step.
func TestSupervisorCrashRestart(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(testEpoch)
	sup, err := StandardNode(StandardNodeConfig{Seed: 5, Kinds: AllKinds, MemRegions: 32})(0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.StopAll()
	if got := sup.Lifecycle(); got != LifecycleUp {
		t.Fatalf("fresh node lifecycle = %s, want up", got)
	}

	clk.RunFor(10 * time.Second)
	preCrash := statusByName(sup.Status())
	env := sup.Env()
	memTicks := env.Mem.Ticks()

	sup.Crash()
	if got := sup.Lifecycle(); got != LifecycleDown {
		t.Fatalf("lifecycle after crash = %s, want down", got)
	}
	sup.Crash() // idempotent
	if got := sup.Lifecycle(); got != LifecycleDown {
		t.Fatalf("lifecycle after double crash = %s", got)
	}
	// A down node refuses redeploys: there is no stack to replace into.
	if err := sup.ReplaceSpec("harvest", spec.Agent{Kind: "harvest"}); err == nil {
		t.Fatal("replace on a down node accepted")
	}

	// The agent stack is dead (counters frozen) but the node keeps
	// simulating underneath.
	clk.RunFor(10 * time.Second)
	for name, st := range statusByName(sup.Status()) {
		if st.Stats.Actions != preCrash[name].Stats.Actions {
			t.Fatalf("%s acted while the node was down", name)
		}
	}
	if got := env.Mem.Ticks(); got <= memTicks {
		t.Fatalf("substrate stopped with the stack down: %d -> %d ticks", memTicks, got)
	}

	restartAt := clk.Now()
	if err := sup.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := sup.Lifecycle(); got != LifecycleUp {
		t.Fatalf("lifecycle after restart = %s, want up", got)
	}
	if got := sup.Restarts(); got != 1 {
		t.Fatalf("Restarts = %d, want 1", got)
	}
	if sup.Env().Mem != env.Mem {
		t.Fatal("restart rebuilt the substrate; it must resume onto the surviving one")
	}
	clk.RunFor(10 * time.Second)
	after := statusByName(sup.Status())
	if len(after) != len(preCrash) {
		t.Fatalf("member count changed across restart: %d -> %d", len(preCrash), len(after))
	}
	for name, st := range after {
		if !st.Stats.StartedAt.Equal(restartAt) {
			t.Fatalf("%s started at %v, want the restart instant %v", name, st.Stats.StartedAt, restartAt)
		}
		if st.Stats.DataCollected == 0 {
			t.Fatalf("%s idle after restart", name)
		}
	}

	// Restart when already up is a no-op.
	if err := sup.Restart(); err != nil {
		t.Fatalf("restart on an up node: %v", err)
	}
	if got := sup.Restarts(); got != 1 {
		t.Fatalf("no-op restart bumped the counter to %d", got)
	}
}

// TestSupervisorRestartRequiresSpecs: Restart relaunches from recorded
// specs onto a live supervisor; a stopped one has nothing to restart.
func TestSupervisorRestartRequiresSpecs(t *testing.T) {
	t.Parallel()
	sup := colocate(t, clock.NewVirtual(testEpoch), "")
	sup.StopAll()
	if err := sup.Restart(); err == nil {
		t.Fatal("restart of a stopped supervisor accepted")
	}
}

// TestSupervisorRestartFailureStopsRelaunched: when a relaunch fails
// partway, the members that attempt already relaunched are stopped
// again, so a retried Restart — which relaunches every member — cannot
// overwrite their live handles and leak them out of StopAll's reach.
func TestSupervisorRestartFailureStopsRelaunched(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(testEpoch)
	sup := NewSupervisor(spec.NodeEnv{Clock: clk})
	// Attempts 1 and 2 are the initial launches, 3 and 4 the first
	// restart's: the second member's relaunch fails.
	log := newLaunchLog(t)
	a := testAgent(t, spec.Variant[testConfig]{Config: testConfig{TTL: time.Second, Log: log.name, FailAttempt: 4}, Schedule: testSchedule})
	for _, name := range []string{"first", "second"} {
		if err := sup.LaunchSpec(name, a); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunFor(time.Second)
	sup.Crash()
	if err := sup.Restart(); err == nil {
		t.Fatal("restart with a failing relaunch succeeded")
	}
	if got := sup.Lifecycle(); got != LifecycleRestarting {
		t.Fatalf("lifecycle after a failed restart = %s, want restarting", got)
	}
	clk.RunFor(time.Second)
	if err := sup.Restart(); err != nil {
		t.Fatalf("retried restart: %v", err)
	}
	clk.RunFor(time.Second)
	sup.StopAll()
	if n := len(log.launched()); n != 5 {
		t.Fatalf("%d agents launched, want 5 (2 + 1 before the failure + 2 on retry)", n)
	}
	if n := log.leaked(); n != 0 {
		t.Fatalf("%d of 5 agents never ran CleanUp", n)
	}
}

// TestLifecycleBatchMatchesStepped is the fault-run determinism
// contract: a fleet under a merged crash/flap/blackout plan produces
// byte-identical reports from the batch driver and the lockstep
// coordinator, across epoch lengths, worker widths, and shard counts
// — including transitions that land mid-epoch and exactly on epoch
// boundaries.
func TestLifecycleBatchMatchesStepped(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Nodes:    8,
		Duration: 30 * time.Second,
		Workers:  2,
		Setup:    StandardNode(StandardNodeConfig{Seed: 11, Kinds: []string{"harvest", "overclock"}}),
		Lifecycle: faults.Plan{
			faults.Crash{At: 13500 * time.Millisecond, Frac: 0.4, Seed: 31},
			faults.Flap{Start: 5 * time.Second, Down: 4 * time.Second, Period: 10 * time.Second, Cycles: 2, Frac: 0.5, Seed: 32},
			faults.Blackout{From: 10 * time.Second, Until: 20 * time.Second, Frac: 0.3, Seed: 33},
		},
	}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Down == 0 || batch.Restarts == 0 {
		t.Fatalf("plan injected nothing (down %d, restarts %d) — the test is vacuous:\n%s",
			batch.Down, batch.Restarts, batch)
	}
	for _, interval := range []time.Duration{5 * time.Second, 3 * time.Second, 700 * time.Millisecond} {
		for _, shards := range []int{0, 2, 4} {
			c := cfg
			c.Shards = shards
			stepped, err := RunStepped(c, interval, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch, stepped) {
				t.Fatalf("interval %v, %d shards: fault run diverged from batch:\n%v\nvs\n%v",
					interval, shards, batch, stepped)
			}
		}
	}
	// And a different worker width reproduces the batch report too.
	wide := cfg
	wide.Workers = 8
	again, err := Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, again) {
		t.Fatal("worker width changed a fault run's report")
	}
}

// TestLifecycleCoordinatorQueries checks the coordinator's node-state
// views (NodeDown, NodeDark, NodeTransitions) against the plan, and
// that a flapped node's members come back spec-faithful after the
// coordinator restarts them mid-drive.
func TestLifecycleCoordinatorQueries(t *testing.T) {
	t.Parallel()
	plan := faults.Plan{
		faults.Flap{Start: 4 * time.Second, Down: 4 * time.Second, Period: 20 * time.Second, Cycles: 1, Frac: 1, Lo: 1, Hi: 2},
		faults.Blackout{From: 2 * time.Second, Until: 6 * time.Second, Frac: 1, Lo: 2, Hi: 3},
	}
	cfg := Config{
		Nodes:     3,
		Duration:  12 * time.Second,
		Workers:   3,
		Setup:     StandardNode(StandardNodeConfig{Seed: 7, Kinds: []string{"overclock"}}),
		Lifecycle: plan,
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co.StopAll()
	if co.NodeDown(1) || co.NodeDark(2) {
		t.Fatal("lifecycle state injected before its scheduled instant")
	}
	if !co.NodeTransitions(1, 0, 5*time.Second) {
		t.Fatal("NodeTransitions misses the 4s down edge")
	}
	if co.NodeTransitions(0, 0, time.Minute) {
		t.Fatal("NodeTransitions invents a transition for an unselected node")
	}
	co.StepFor(5 * time.Second) // 5s: node 1 down (4..8), node 2 dark (2..6)
	if !co.NodeDown(1) {
		t.Fatal("node 1 should be down at 5s")
	}
	if !co.NodeDark(2) {
		t.Fatal("node 2 should be dark at 5s")
	}
	if co.NodeDown(2) || co.NodeDark(1) {
		t.Fatal("dark and down are distinct states")
	}
	co.StepFor(5 * time.Second) // 10s: everyone recovered
	if co.NodeDown(1) || co.NodeDark(2) {
		t.Fatal("states did not clear after the windows closed")
	}
	if err := co.LifecycleErr(); err != nil {
		t.Fatalf("restart failed: %v", err)
	}
	rep := co.Report()
	if rep.Down != 0 || rep.Restarting != 0 || rep.Restarts != 1 {
		t.Fatalf("report lifecycle = %d down, %d restarting, %d restarts; want 0, 0, 1:\n%s",
			rep.Down, rep.Restarting, rep.Restarts, rep)
	}
	if !strings.Contains(rep.String(), "lifecycle: 0 down, 0 restarting, 1 restarts") {
		t.Fatalf("report does not render the lifecycle line:\n%s", rep)
	}
}

// TestLifecycleReportRendering pins the report's lifecycle line: down
// nodes are counted, their agents' deadline compliance is not judged,
// and a fault-free report renders without the line at all.
func TestLifecycleReportRendering(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Nodes:    4,
		Duration: 20 * time.Second,
		Workers:  2,
		Setup:    StandardNode(StandardNodeConfig{Seed: 13, Kinds: []string{"harvest"}}),
	}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "lifecycle:") {
		t.Fatalf("fault-free report renders a lifecycle line:\n%s", clean)
	}

	crashed := cfg
	crashed.Lifecycle = faults.Crash{At: 10 * time.Second, Frac: 1, Lo: 1, Hi: 3}
	rep, err := Run(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Down != 2 {
		t.Fatalf("Down = %d, want 2", rep.Down)
	}
	if !strings.Contains(rep.String(), "lifecycle: 2 down, 0 restarting, 0 restarts") {
		t.Fatalf("report misses the lifecycle line:\n%s", rep)
	}
	ks := rep.Kinds["harvest"]
	if ks.DeadlineEligible != clean.Kinds["harvest"].DeadlineEligible-2 {
		t.Fatalf("down nodes' agents still deadline-judged: eligible %d, clean %d",
			ks.DeadlineEligible, clean.Kinds["harvest"].DeadlineEligible)
	}
}
