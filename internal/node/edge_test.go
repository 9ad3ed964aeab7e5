package node

import (
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/stats"
	"sol/internal/workload"
)

// zonedNow returns the current instant in a fixed non-UTC zone, still
// carrying its monotonic reading: the anchor of a fresh Real clock.
// Time.In would strip the reading, so the zone goes in through
// time.Local while the clock reads the wall; no test in this package
// runs in parallel with another.
func zonedNow(t *testing.T) time.Time {
	t.Helper()
	zone := time.FixedZone("UTC+5:30", 5*3600+30*60)
	local := time.Local
	time.Local = zone
	now := clock.NewReal().At(0)
	time.Local = local
	if now.Location() != zone || now == now.Round(0) {
		t.Fatalf("anchor %v lost its zone or its monotonic reading", now)
	}
	return now
}

// edgeModel reads the primary VM's utilization every sample, checks
// each time.Time the runtime hands it, and records the instant it last
// produced a prediction.
type edgeModel struct {
	vm          *VM
	check       func(what string, got, want time.Time)
	clk         *clock.Virtual
	predictedAt time.Time
}

func (m *edgeModel) CollectData() (float64, error) { return m.vm.CurrentUtil(), nil }
func (m *edgeModel) ValidateData(float64) error    { return nil }
func (m *edgeModel) CommitData(at time.Time, _ float64) {
	m.check("CommitData", at, m.clk.Now())
}
func (m *edgeModel) UpdateModel() {}
func (m *edgeModel) Predict() (core.Prediction[int], error) {
	m.predictedAt = m.clk.Now()
	return core.Prediction[int]{Value: 1}, nil
}
func (m *edgeModel) DefaultPredict() core.Prediction[int] {
	m.predictedAt = m.clk.Now()
	return core.Prediction[int]{}
}
func (m *edgeModel) AssessModel() bool { return true }

// edgeActuator checks the timestamps on every prediction it is handed
// against the instant the model produced the freshest one.
type edgeActuator struct {
	check func(what string, got, want time.Time)
	ttl   time.Duration
	model *edgeModel
}

func (a *edgeActuator) TakeAction(p *core.Prediction[int]) {
	if p == nil {
		return
	}
	a.check("Prediction.Issued", p.Issued(), a.model.predictedAt)
	a.check("Prediction.Expires", p.Expires, a.model.predictedAt.Add(a.ttl))
}
func (a *edgeActuator) AssessPerformance() bool { return true }
func (a *edgeActuator) Mitigate()               {}
func (a *edgeActuator) CleanUp()                {}

// TestEdgeTimesAreTheClocks: inside the per-event path time is int64
// nanoseconds on the clock's timebase, and every time.Time that leaves
// it is built from the clock's own anchor. On a Virtual clock anchored
// at a non-UTC instant that carries a monotonic reading, each edge
// value must be == to what the clock hands out for that instant: the
// same wall time, the same monotonic reading and the same Location. A
// value rebuilt as time.Unix(0, ns) would be Equal at best, never ==.
func TestEdgeTimesAreTheClocks(t *testing.T) {
	anchor := zonedNow(t)
	clk := clock.NewVirtualSingle(anchor)
	if clk.Now() != anchor {
		t.Fatalf("clock starts at %v, want its anchor %v", clk.Now(), anchor)
	}
	seen := map[string]int{}
	check := func(what string, got, want time.Time) {
		t.Helper()
		seen[what]++
		if want.Location() != anchor.Location() || want == want.Round(0) {
			t.Fatalf("%s: reference %v is not on the clock's anchor", what, want)
		}
		if got != want {
			t.Fatalf("%s = %#v, want the clock's %#v", what, got, want)
		}
	}
	// onClock is the clock's own value for the instant t names.
	onClock := func(t time.Time) time.Time { return clk.At(int64(t.Sub(anchor))) }

	cfg := DefaultConfig()
	cfg.TickInterval = time.Millisecond
	n := MustNew(clk, cfg)
	tb := workload.NewMoses(stats.NewRNG(4), 8, 1.5)
	syn := workload.NewSynthetic(2*time.Second, 6) // 1 s busy on 4 cores at 1.5 GHz
	vm, err := n.AddVM("tb", 8, tb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddVM("syn", 4, syn); err != nil {
		t.Fatal(err)
	}
	check("CPUCounters.At before a tick", vm.Counters().At, clk.Now())
	tb.OnSurge(func(at time.Time, _ float64) { check("OnSurge", at, clk.Now()) })
	syn.OnPhase(func(_ bool, at time.Time) { check("OnPhase", at, clk.Now()) })

	sched := core.Schedule{
		DataPerEpoch:        20,
		DataCollectInterval: 500 * time.Microsecond,
		MaxEpochTime:        15 * time.Millisecond,
		MaxActuationDelay:   40 * time.Millisecond,
		PredictionTTL:       30 * time.Millisecond,
	}
	model := &edgeModel{vm: vm, check: check, clk: clk}
	act := &edgeActuator{check: check, ttl: sched.PredictionTTL, model: model}
	delays := 0
	rt, err := core.Run[float64, int](clk, model, act, sched, core.Options{
		// Every tenth step runs 2 ms late: a schedule violation.
		ModelDelay: func(intended time.Time) time.Duration {
			check("ModelDelay", intended, onClock(intended))
			if delays++; delays%10 == 0 {
				return 2 * time.Millisecond
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	// Armed after Start, this fires right after every node tick.
	clk.Tick(cfg.TickInterval, func() {
		check("CPUCounters.At", vm.Counters().At, clk.Now())
		check("Node.Counters.At", n.Counters("syn").At, clk.Now())
	})
	clk.RunFor(5 * time.Second)
	rt.Stop()
	n.Stop()

	st := rt.Stats()
	check("Stats.StartedAt", st.StartedAt, anchor)
	check("Stats.StoppedAt", st.StoppedAt, clk.Now())
	for _, what := range []string{
		"CommitData", "ModelDelay", "Prediction.Issued", "Prediction.Expires",
		"OnSurge", "OnPhase", "CPUCounters.At", "Node.Counters.At",
	} {
		if seen[what] == 0 {
			t.Errorf("%s was never handed out in 5 s; the run must reach every edge", what)
		}
	}
}
