package sol

// Cross-package integration tests: multiple agents co-resident on one
// simulated node, real-clock operation of the runtime, and the
// operator-facing CleanUp contract the paper requires ("SREs can safely
// terminate and cleanup after misbehaving agents without knowing
// anything about their implementation").

import (
	"sync/atomic"
	"testing"
	"time"

	"sol/internal/agents/harvest"
	"sol/internal/agents/memory"
	"sol/internal/agents/overclock"
	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/memsim"
	"sol/internal/node"
	"sol/internal/spec"
	"sol/internal/stats"
	"sol/internal/workload"
)

var testEpoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// launchSpec deploys a through the spec registry on env, the path a
// fleet node uses, and fails t if it does not start.
func launchSpec(t *testing.T, a spec.Agent, env spec.NodeEnv) core.Handle {
	t.Helper()
	h, _, err := spec.Launch(a, env)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCoResidentAgents runs SmartOverclock and SmartHarvest on the same
// node at the same time — different VMs, different knobs, one clock —
// plus SmartMemory on the node's memory. The paper's premise is many
// independent agents per node; they must not interfere through the
// framework.
func TestCoResidentAgents(t *testing.T) {
	clk := clock.NewVirtual(testEpoch)
	ncfg := node.DefaultConfig()
	ncfg.TickInterval = 50 * time.Microsecond // fine enough for harvest
	n := node.MustNew(clk, ncfg)

	// VM 1: compute batches, managed by SmartOverclock.
	syn := workload.NewSynthetic(20*time.Second, 24)
	if _, err := n.AddVM("compute", 4, syn); err != nil {
		t.Fatal(err)
	}
	// VM 2 + elastic: latency-critical service, managed by SmartHarvest.
	tb := workload.NewImageDNN(stats.NewRNG(3), 8, 1.5)
	if _, err := n.AddVM("primary", 8, tb); err != nil {
		t.Fatal(err)
	}
	el := workload.NewElastic()
	if _, err := n.AddVM("elastic", 8, el); err != nil {
		t.Fatal(err)
	}
	n.SetAvailableCores("elastic", 0)
	n.Start()

	// Node memory, managed by SmartMemory.
	trace := workload.NewSQLTrace(128, 5)
	mem := memsim.MustNew(clk, memsim.DefaultConfig(128), trace)
	mem.Start()

	env := spec.NodeEnv{Clock: clk, Node: n, Mem: mem}
	oc := launchSpec(t, spec.Agent{Kind: overclock.Kind, Params: []byte(`{"Config": {"VM": "compute"}}`)}, env)
	defer oc.Stop()
	hv := launchSpec(t, spec.Agent{Kind: harvest.Kind}, env)
	defer hv.Stop()
	mm := launchSpec(t, spec.Agent{Kind: memory.Kind}, env)
	defer mm.Stop()

	clk.RunFor(90 * time.Second)

	// Every agent made progress.
	if oc.Stats().PredictionsIssued == 0 {
		t.Fatal("overclock agent idle")
	}
	if hv.Stats().PredictionsIssued == 0 {
		t.Fatal("harvest agent idle")
	}
	if mm.Stats().PredictionsIssued == 0 {
		t.Fatal("memory agent idle")
	}
	// SmartOverclock's knob (compute VM frequency) never touched the
	// primary VM, and SmartHarvest's knob never touched the compute VM.
	if n.FrequencyLevel("primary") != 0 {
		t.Fatal("harvest VM's frequency changed by the overclock agent")
	}
	if n.AvailableCores("compute") != 4 {
		t.Fatal("compute VM's cores changed by the harvest agent")
	}
	// Both agents actually did their jobs.
	if syn.BatchesDone() == 0 || el.CoreSeconds() == 0 {
		t.Fatalf("agents took no effect: batches=%d harvested=%.1f",
			syn.BatchesDone(), el.CoreSeconds())
	}
}

// TestOperatorCleanUp exercises the SRE contract: CleanUp is callable
// at any moment, by anyone, repeatedly, regardless of agent state —
// including while the runtime is mid-flight and after Stop.
func TestOperatorCleanUp(t *testing.T) {
	clk := clock.NewVirtual(testEpoch)
	n := node.MustNew(clk, node.DefaultConfig())
	if _, err := n.AddVM("batch", 4, workload.NewDiskSpeed()); err != nil {
		t.Fatal(err)
	}
	n.Start()
	ag := launchSpec(t, spec.Agent{Kind: overclock.Kind}, spec.NodeEnv{Clock: clk, Node: n}).(*overclock.Agent)
	clk.RunFor(10 * time.Second)

	// An SRE calls CleanUp out of band, mid-run, twice.
	n.SetFrequencyLevel("batch", 2)
	ag.Actuator.CleanUp()
	ag.Actuator.CleanUp()
	if n.FrequencyLevel("batch") != 0 {
		t.Fatal("out-of-band CleanUp did not restore nominal")
	}

	// The agent keeps running afterwards (CleanUp is not Stop).
	before := ag.Stats().PredictionsIssued
	clk.RunFor(10 * time.Second)
	if ag.Stats().PredictionsIssued == before {
		t.Fatal("agent stopped after out-of-band CleanUp")
	}

	ag.Stop()
	ag.Actuator.CleanUp() // still safe after Stop
	if n.FrequencyLevel("batch") != 0 {
		t.Fatal("post-Stop CleanUp broke node state")
	}
}

// realModel is a minimal model for wall-clock smoke testing.
type realModel struct {
	collects atomic.Int64
}

func (m *realModel) CollectData() (int, error) {
	m.collects.Add(1)
	return 1, nil
}
func (m *realModel) ValidateData(int) error    { return nil }
func (m *realModel) CommitData(time.Time, int) {}
func (m *realModel) UpdateModel()              {}
func (m *realModel) Predict() (Prediction[int], error) {
	return Prediction[int]{Value: 7, Expires: time.Now().Add(time.Second)}, nil
}
func (m *realModel) DefaultPredict() Prediction[int] { return Prediction[int]{} }
func (m *realModel) AssessModel() bool               { return true }

type realActuator struct {
	actions atomic.Int64
	cleaned atomic.Int64
}

func (a *realActuator) TakeAction(*Prediction[int]) { a.actions.Add(1) }
func (a *realActuator) AssessPerformance() bool     { return true }
func (a *realActuator) Mitigate()                   {}
func (a *realActuator) CleanUp()                    { a.cleaned.Add(1) }

// TestRealClockRuntime runs the actual runtime on the wall clock for a
// fraction of a second: timer callbacks arrive on arbitrary goroutines,
// so this exercises the runtime's locking for real.
func TestRealClockRuntime(t *testing.T) {
	m := &realModel{}
	a := &realActuator{}
	rt, err := Run[int, int](NewRealClock(), m, a, Schedule{
		DataPerEpoch:           3,
		DataCollectInterval:    5 * time.Millisecond,
		MaxEpochTime:           100 * time.Millisecond,
		AssessModelEvery:       1,
		MaxActuationDelay:      50 * time.Millisecond,
		AssessActuatorInterval: 20 * time.Millisecond,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.actions.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	rt.Stop()
	if a.actions.Load() < 5 {
		t.Fatalf("real-clock runtime took only %d actions in 5s", a.actions.Load())
	}
	if a.cleaned.Load() != 1 {
		t.Fatalf("CleanUp ran %d times", a.cleaned.Load())
	}
	// No further actions after Stop.
	after := a.actions.Load()
	time.Sleep(150 * time.Millisecond)
	if a.actions.Load() != after {
		t.Fatal("actions continued after Stop on the real clock")
	}
}

// TestDeterminism runs the same co-resident scenario twice and demands
// identical outcomes — the property every experiment relies on.
func TestDeterminism(t *testing.T) {
	runOnce := func() (uint64, float64, int) {
		clk := clock.NewVirtual(testEpoch)
		n := node.MustNew(clk, node.DefaultConfig())
		syn := workload.NewSynthetic(20*time.Second, 24)
		if _, err := n.AddVM("batch", 4, syn); err != nil {
			t.Fatal(err)
		}
		n.Start()
		ag := launchSpec(t, spec.Agent{Kind: overclock.Kind}, spec.NodeEnv{Clock: clk, Node: n})
		clk.RunFor(120 * time.Second)
		st := ag.Stats()
		ag.Stop()
		return st.PredictionsIssued, n.EnergyJ("batch"), syn.BatchesDone()
	}
	p1, e1, b1 := runOnce()
	p2, e2, b2 := runOnce()
	if p1 != p2 || e1 != e2 || b1 != b2 {
		t.Fatalf("non-deterministic run: (%d,%v,%d) vs (%d,%v,%d)", p1, e1, b1, p2, e2, b2)
	}
}
