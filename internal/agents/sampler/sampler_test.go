package sampler

import (
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/telemetry"
)

var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

func rig(t *testing.T, opts core.Options) (*clock.Virtual, *telemetry.Source, *Agent) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	src := telemetry.MustNew(clk, telemetry.DefaultConfig())
	src.Start()
	ag, err := start(clk, src, DefaultConfig(), Schedule(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ag.Stop)
	return clk, src, ag
}

func TestModelValidation(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	src := telemetry.MustNew(clk, telemetry.DefaultConfig())
	if err := new(Model).init(src, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	m := new(Model)
	if err := m.init(src, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := m.ValidateData(Obs{Counts: []ChannelCount{{Channel: 0, Count: -1}}}); err == nil {
		t.Fatal("negative count accepted")
	}
	if err := m.ValidateData(Obs{AuditCount: 2_000_000}); err == nil {
		t.Fatal("absurd audit count accepted")
	}
	if err := m.ValidateData(Obs{Counts: []ChannelCount{{Channel: 0, Count: 3}}, AuditCount: 1}); err != nil {
		t.Fatalf("valid observation rejected: %v", err)
	}
}

func TestAgentRunsAndAllocatesBudget(t *testing.T) {
	clk, src, ag := rig(t, core.Options{})
	clk.RunFor(30 * time.Second)
	st := ag.Runtime.Stats()
	if st.PredictionsIssued == 0 || st.Actions == 0 {
		t.Fatalf("agent idle: %+v", st)
	}
	alloc := ag.Actuator.Allocation()
	if len(alloc) != src.Config().Budget {
		t.Fatalf("allocation size %d, want budget %d", len(alloc), src.Config().Budget)
	}
	seen := map[int]bool{}
	for _, ch := range alloc {
		if ch < 0 || ch >= src.Channels() || seen[ch] {
			t.Fatalf("bad allocation %v", alloc)
		}
		seen[ch] = true
	}
	// The agent must never overrun the budget (its safety metric).
	if src.Snapshot().OverBudget != 0 {
		t.Fatalf("budget overruns: %d", src.Snapshot().OverBudget)
	}
}

func TestBeatsRoundRobinCoverage(t *testing.T) {
	// Learned allocation must observe more events than a static
	// round-robin sweep with the same budget.
	runAgent := func() float64 {
		clk, src, _ := rig(t, core.Options{})
		clk.RunFor(60 * time.Second)
		mark := src.Snapshot()
		clk.RunFor(120 * time.Second)
		return src.Snapshot().Coverage(mark)
	}
	runStatic := func() float64 {
		clk := clock.NewVirtual(epoch)
		src := telemetry.MustNew(clk, telemetry.DefaultConfig())
		src.Start()
		// Static sweep: rotate the budget window every interval.
		off := 0
		var tick func()
		stop := false
		tick = func() {
			if stop {
				return
			}
			budget := src.Config().Budget
			set := make([]int, budget)
			for i := range set {
				set[i] = (off + i) % src.Channels()
			}
			off = (off + budget) % src.Channels()
			src.SampleSet(set)
			clk.AfterFunc(src.Config().Interval, tick)
		}
		clk.AfterFunc(src.Config().Interval, tick)
		clk.RunFor(60 * time.Second)
		mark := src.Snapshot()
		clk.RunFor(120 * time.Second)
		stop = true
		return src.Snapshot().Coverage(mark)
	}
	agent, static := runAgent(), runStatic()
	if agent <= static {
		t.Fatalf("learned coverage %.3f not better than round-robin %.3f", agent, static)
	}
}

func TestBrokenModelCaughtByAudit(t *testing.T) {
	clk, _, ag := rig(t, core.Options{})
	clk.RunFor(20 * time.Second)
	ag.Model.Break(true)
	clk.RunFor(60 * time.Second)
	st := ag.Runtime.Stats()
	if st.ModelSafeguardTriggers == 0 {
		t.Fatal("audit never caught the degenerate allocation")
	}
	if st.PredictionsIntercepted == 0 {
		t.Fatal("degenerate predictions were not intercepted")
	}
}

func TestDefaultPredictIsRoundRobin(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	src := telemetry.MustNew(clk, telemetry.DefaultConfig())
	m := new(Model)
	if err := m.init(src, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	d := m.DefaultPredict()
	if len(d.Value.Channels) != src.Config().Budget {
		t.Fatalf("default allocation size %d", len(d.Value.Channels))
	}
}

func TestActuatorNilPredictionSweeps(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	src := telemetry.MustNew(clk, telemetry.DefaultConfig())
	a := new(Actuator)
	a.init(src)
	a.TakeAction(nil)
	first := append([]int(nil), a.Allocation()...)
	a.TakeAction(nil)
	second := a.Allocation()
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
		}
	}
	if same {
		t.Fatal("nil-prediction sweep did not rotate")
	}
}

func TestCleanUpIdempotent(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	src := telemetry.MustNew(clk, telemetry.DefaultConfig())
	a := new(Actuator)
	a.init(src)
	a.CleanUp()
	a.CleanUp()
	if len(a.Allocation()) != src.Config().Budget {
		t.Fatal("CleanUp left a bad allocation")
	}
}
