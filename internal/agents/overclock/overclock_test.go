package overclock

import (
	"strings"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/node"
	"sol/internal/stats"
	"sol/internal/workload"
)

var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

func newRig(t *testing.T, w workload.CPUWorkload) (*clock.Virtual, *node.Node) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	n := node.MustNew(clk, node.DefaultConfig())
	if _, err := n.AddVM("vm", 4, w); err != nil {
		t.Fatal(err)
	}
	n.Start()
	return clk, n
}

func launch(t *testing.T, clk *clock.Virtual, n *node.Node, opts core.Options) *Agent {
	t.Helper()
	ag, err := start(clk, n, DefaultConfig("vm"), Schedule(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ag.Stop)
	return ag
}

// busyWork is a simple always-CPU-bound workload.
type busyWork struct{}

func (busyWork) Name() string { return "busy" }
func (busyWork) Tick(_ workload.Step, res workload.Resources) workload.Usage {
	return workload.Usage{Util: res.Cores, IPC: 1.5, StallFrac: 0.1}
}

// idleWork never uses CPU.
type idleWork struct{}

func (idleWork) Name() string { return "idle" }
func (idleWork) Tick(_ workload.Step, res workload.Resources) workload.Usage {
	return workload.Usage{Util: 0.02, IPC: 0.5, StallFrac: 0.5}
}

func TestConstructorsRejectUnknownVM(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	n := node.MustNew(clk, node.DefaultConfig())
	if err := new(Model).init(n, DefaultConfig("ghost"), Schedule()); err == nil {
		t.Fatal("Model.init accepted unknown VM")
	}
	if err := new(Actuator).init(n, DefaultConfig("ghost")); err == nil {
		t.Fatal("Actuator.init accepted unknown VM")
	}
	if _, err := start(clk, n, DefaultConfig("ghost"), Schedule(), core.Options{}); err == nil {
		t.Fatal("Launch accepted unknown VM")
	}
}

func TestLearnsToOverclockCPUBoundWork(t *testing.T) {
	clk, n := newRig(t, busyWork{})
	launch(t, clk, n, core.Options{})
	clk.RunFor(120 * time.Second)
	// Measure frequency residency over the next stretch.
	at23 := 0
	total := 0
	done := epoch.Add(240 * time.Second)
	for clk.Now().Before(done) {
		clk.RunFor(time.Second)
		total++
		if n.FrequencyLevel("vm") == 2 {
			at23++
		}
	}
	if frac := float64(at23) / float64(total); frac < 0.6 {
		t.Fatalf("CPU-bound workload overclocked only %.0f%% of the time", frac*100)
	}
}

func TestStaysNominalOnDiskBound(t *testing.T) {
	clk, n := newRig(t, workload.NewDiskSpeed())
	launch(t, clk, n, core.Options{})
	clk.RunFor(60 * time.Second)
	atNominal := 0
	total := 0
	done := epoch.Add(180 * time.Second)
	for clk.Now().Before(done) {
		clk.RunFor(time.Second)
		total++
		if n.FrequencyLevel("vm") == 0 {
			atNominal++
		}
	}
	// Exploration overclocks ~10% of epochs; policy should stay nominal.
	if frac := float64(atNominal) / float64(total); frac < 0.75 {
		t.Fatalf("disk-bound workload at nominal only %.0f%% of the time", frac*100)
	}
}

func TestValidateDataRangeChecks(t *testing.T) {
	clk, n := newRig(t, busyWork{})
	m := new(Model)
	if err := m.init(n, DefaultConfig("vm"), Schedule()); err != nil {
		t.Fatal(err)
	}
	_ = clk
	good := Sample{IPS: 5, Alpha: 0.5}
	if err := m.ValidateData(good); err != nil {
		t.Fatalf("valid sample rejected: %v", err)
	}
	for _, bad := range []Sample{
		{IPS: -1, Alpha: 0.5},
		{IPS: 1e6, Alpha: 0.5},
		{IPS: 5, Alpha: -0.5},
		{IPS: 5, Alpha: 1.5},
	} {
		if err := m.ValidateData(bad); err == nil {
			t.Fatalf("invalid sample %+v accepted", bad)
		}
	}
}

func TestCorruptedDataRejectedByRuntime(t *testing.T) {
	clk, n := newRig(t, busyWork{})
	ag := launch(t, clk, n, core.Options{})
	rng := stats.NewRNG(9)
	ag.Model.SetCorruptor(func(s *Sample) {
		if rng.Bool(0.3) {
			s.IPS = -42
		}
	})
	clk.RunFor(30 * time.Second)
	st := ag.Runtime.Stats()
	if st.DataRejected == 0 {
		t.Fatal("no corrupted samples were rejected")
	}
	frac := float64(st.DataRejected) / float64(st.DataCollected)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("rejection rate %.2f, want ~0.3", frac)
	}
}

func TestBrokenModelAlwaysPicksMax(t *testing.T) {
	clk, n := newRig(t, busyWork{})
	m := new(Model)
	if err := m.init(n, DefaultConfig("vm"), Schedule()); err != nil {
		t.Fatal(err)
	}
	m.Break(true)
	p, err := m.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 2 {
		t.Fatalf("broken model predicted level %d, want 2", p.Value)
	}
	_ = clk
}

func TestModelSafeguardCatchesBrokenModelOnDisk(t *testing.T) {
	clk, n := newRig(t, workload.NewDiskSpeed())
	ag := launch(t, clk, n, core.Options{})
	ag.Model.Break(true)
	clk.RunFor(60 * time.Second)
	if !ag.Health().ModelFailing {
		t.Fatal("model safeguard did not catch a broken model on disk-bound work")
	}
	// With interception, the node should be at nominal most of the time.
	atNominal := 0
	for i := 0; i < 60; i++ {
		clk.RunFor(time.Second)
		if n.FrequencyLevel("vm") == 0 {
			atNominal++
		}
	}
	if atNominal < 40 {
		t.Fatalf("node at nominal only %d/60s despite interception", atNominal)
	}
}

func TestModelSafeguardAllowsGoodOverclocking(t *testing.T) {
	clk, n := newRig(t, busyWork{})
	ag := launch(t, clk, n, core.Options{})
	clk.RunFor(180 * time.Second)
	// On always-busy CPU-bound work, Δr is positive; assessment must
	// not be failing at steady state.
	if ag.Health().ModelFailing {
		t.Fatal("model safeguard tripped on genuinely beneficial overclocking")
	}
}

func TestActuatorNilPredictionGoesNominal(t *testing.T) {
	clk, n := newRig(t, busyWork{})
	a := new(Actuator)
	if err := a.init(n, DefaultConfig("vm")); err != nil {
		t.Fatal(err)
	}
	n.SetFrequencyLevel("vm", 2)
	a.TakeAction(nil)
	if n.FrequencyLevel("vm") != 0 {
		t.Fatal("nil prediction did not restore nominal")
	}
	_ = clk
}

func TestActuatorClampsInsanePrediction(t *testing.T) {
	_, n := newRig(t, busyWork{})
	a := new(Actuator)
	if err := a.init(n, DefaultConfig("vm")); err != nil {
		t.Fatal(err)
	}
	a.TakeAction(&core.Prediction[int]{Value: 99})
	if n.FrequencyLevel("vm") != 0 {
		t.Fatal("out-of-range prediction not clamped to nominal")
	}
}

func TestActuatorSafeguardTriggersOnLongIdle(t *testing.T) {
	clk, n := newRig(t, idleWork{})
	ag := launch(t, clk, n, core.Options{})
	clk.RunFor(150 * time.Second)
	if !ag.Health().Halted {
		t.Fatal("actuator safeguard did not trigger on a long idle phase")
	}
	if n.FrequencyLevel("vm") != 0 {
		t.Fatal("mitigation did not restore nominal frequency")
	}
}

func TestActuatorSafeguardStaysQuietWhenBusy(t *testing.T) {
	clk, n := newRig(t, busyWork{})
	ag := launch(t, clk, n, core.Options{})
	clk.RunFor(200 * time.Second)
	if ag.Health().Halted {
		t.Fatal("actuator safeguard tripped on a busy workload")
	}
	if ag.Stats().Mitigations != 0 {
		t.Fatal("unexpected mitigations on busy workload")
	}
}

func TestCleanUpRestoresNominalAndIsIdempotent(t *testing.T) {
	_, n := newRig(t, busyWork{})
	a := new(Actuator)
	if err := a.init(n, DefaultConfig("vm")); err != nil {
		t.Fatal(err)
	}
	n.SetFrequencyLevel("vm", 2)
	a.CleanUp()
	a.CleanUp()
	if n.FrequencyLevel("vm") != 0 {
		t.Fatal("CleanUp did not restore nominal")
	}
}

func TestStopRunsCleanUp(t *testing.T) {
	clk, n := newRig(t, busyWork{})
	ag, err := start(clk, n, DefaultConfig("vm"), Schedule(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunFor(60 * time.Second)
	n.SetFrequencyLevel("vm", 2)
	ag.Stop()
	if n.FrequencyLevel("vm") != 0 {
		t.Fatal("Stop did not clean up to nominal frequency")
	}
}

func TestRewardShape(t *testing.T) {
	_, n := newRig(t, busyWork{})
	m := new(Model)
	if err := m.init(n, DefaultConfig("vm"), Schedule()); err != nil {
		t.Fatal(err)
	}
	// Full-tilt IPS at 2.3 GHz beats nominal reward; idle at 2.3 loses.
	busyNom := m.reward(4*1.5*0.9*1.5, 0)
	busyOC := m.reward(4*2.3*0.9*1.5, 2)
	idleNom := m.reward(0.05, 0)
	idleOC := m.reward(0.05, 2)
	if busyOC <= busyNom {
		t.Fatalf("overclocked busy reward %v <= nominal %v", busyOC, busyNom)
	}
	if idleOC >= idleNom {
		t.Fatalf("overclocked idle reward %v >= nominal %v", idleOC, idleNom)
	}
}

func TestPowerPenaltyMonotone(t *testing.T) {
	_, n := newRig(t, busyWork{})
	m := new(Model)
	if err := m.init(n, DefaultConfig("vm"), Schedule()); err != nil {
		t.Fatal(err)
	}
	if m.powerPenalty(0) != 0 {
		t.Fatalf("nominal penalty = %v, want 0", m.powerPenalty(0))
	}
	if !(m.powerPenalty(1) > 0 && m.powerPenalty(2) > m.powerPenalty(1)) {
		t.Fatal("power penalty not monotone in frequency")
	}
}

func TestStateBuckets(t *testing.T) {
	_, n := newRig(t, busyWork{})
	m := new(Model)
	if err := m.init(n, DefaultConfig("vm"), Schedule()); err != nil {
		t.Fatal(err)
	}
	if s := m.stateOf(0, 0); s != 0 {
		t.Fatalf("idle state = %d, want 0", s)
	}
	// Full utilization at max IPC at nominal: norm=1 clamps to last bucket.
	if s := m.stateOf(4*1.5*2.0, 0); s != 9 {
		t.Fatalf("max state = %d, want 9", s)
	}
	// The phase signal is frequency-invariant: same normalized load at
	// different frequencies maps to the same bucket.
	if m.stateOf(4*1.5*0.9*1.5, 0) != m.stateOf(4*2.3*0.9*1.5, 2) {
		t.Fatal("state not frequency-invariant")
	}
}

func TestScheduleViolationReporting(t *testing.T) {
	clk, n := newRig(t, busyWork{})
	d := 70 * time.Millisecond
	first := true
	ag := launch(t, clk, n, core.Options{ModelDelay: func(ti time.Time) time.Duration {
		if first {
			first = false
			return 3 * d
		}
		return 0
	}})
	clk.RunFor(5 * time.Second)
	if ag.Stats().ScheduleViolations == 0 {
		t.Fatal("runtime did not count the schedule violation")
	}
}

func TestValidateErrorMessagesNamePackage(t *testing.T) {
	_, n := newRig(t, busyWork{})
	m := new(Model)
	if err := m.init(n, DefaultConfig("vm"), Schedule()); err != nil {
		t.Fatal(err)
	}
	err := m.ValidateData(Sample{IPS: -1})
	if err == nil || !strings.HasPrefix(err.Error(), "overclock:") {
		t.Fatalf("error %q should identify its origin", err)
	}
}
