package core

import (
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/testutil"
)

// Zero-allocation regression tests for the runtime's steady-state: one
// learning epoch — collect ticks, epoch close, prediction queue push,
// actuator wake, actuation, assessment — must not allocate once the
// timers and queue exist. This is what keeps fleet events/s bounded by
// arithmetic rather than by the garbage collector.

type allocModel struct{ clk clock.Clock }

func (m *allocModel) CollectData() (int, error) { return 1, nil }
func (m *allocModel) ValidateData(int) error    { return nil }
func (m *allocModel) CommitData(time.Time, int) {}
func (m *allocModel) UpdateModel()              {}
func (m *allocModel) Predict() (Prediction[int], error) {
	return Prediction[int]{Value: 1, Expires: m.clk.Now().Add(time.Second)}, nil
}
func (m *allocModel) DefaultPredict() Prediction[int] { return Prediction[int]{} }
func (m *allocModel) AssessModel() bool               { return true }

type allocActuator struct{}

func (allocActuator) TakeAction(*Prediction[int]) {}
func (allocActuator) AssessPerformance() bool     { return true }
func (allocActuator) Mitigate()                   {}
func (allocActuator) CleanUp()                    {}

// allocSchedule runs all three loops: collect, actuation deadline and
// performance assessment.
var allocSchedule = Schedule{
	DataPerEpoch:           10,
	DataCollectInterval:    100 * time.Millisecond,
	MaxEpochTime:           1500 * time.Millisecond,
	AssessModelEvery:       1,
	MaxActuationDelay:      5 * time.Second,
	AssessActuatorInterval: time.Second,
}

func TestRuntimeEpochAllocs(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	rt, err := Run[int, int](clk, &allocModel{clk: clk}, allocActuator{}, allocSchedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	clk.RunFor(10 * time.Second) // warm up timers, queue, heap capacity
	if avg := testing.AllocsPerRun(50, func() {
		clk.RunFor(time.Second) // one full epoch
	}); avg != 0 {
		t.Fatalf("steady-state epoch allocates %.1f times, want 0", avg)
	}
}

// TestRunAllocs: starting a runtime with all three loops allocates the
// Runtime and nothing else — its timers are embedded in the Runtime,
// their handlers are the Runtime itself, and a default-depth prediction
// ring lives in it too. Start on a Runtime the caller already holds,
// the way every agent embeds one, allocates nothing; a ring deeper than
// the default is its one heap object.
func TestRunAllocs(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	model := &allocModel{clk: clk}
	armed := func(rt *Runtime[int, int]) {
		if clk.Len() != 3 {
			t.Fatalf("runtime armed %d timers, want 3", clk.Len())
		}
		rt.Stop()
	}

	t.Run("Run", func(t *testing.T) {
		if avg := testing.AllocsPerRun(50, func() {
			rt, err := Run[int, int](clk, model, allocActuator{}, allocSchedule, Options{})
			if err != nil {
				t.Fatal(err)
			}
			armed(rt)
		}); avg != 1 {
			t.Fatalf("Run allocates %.1f times, want 1: the Runtime", avg)
		}
	})

	start := func(t *testing.T, sched Schedule, want int) {
		const runs = 50
		rts := make([]Runtime[int, int], runs)
		i := 0
		if n := testutil.Mallocs(t, func() {
			for ; i < runs; i++ {
				if err := rts[i].Start(clk, model, allocActuator{}, sched, Options{}); err != nil {
					t.Fatal(err)
				}
				armed(&rts[i])
			}
		}); n != uint64(want*runs) {
			t.Fatalf("%d Starts on zero Runtimes with QueueCapacity %d allocate %d times, want %d each", runs, sched.QueueCapacity, n, want)
		}
	}
	t.Run("Start", func(t *testing.T) { start(t, allocSchedule, 0) })
	t.Run("StartDeepQueue", func(t *testing.T) {
		sched := allocSchedule
		sched.QueueCapacity = 16
		start(t, sched, 1)
	})
}
