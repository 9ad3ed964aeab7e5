package core

import (
	"testing"
	"time"

	"sol/internal/clock"
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
	clk := clock.NewVirtualSingle(epoch)
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
// Runtime and its prediction queue and nothing for the clock — its
// timers are embedded in the Runtime, and their handlers are the
// Runtime itself.
func TestRunAllocs(t *testing.T) {
	clk := clock.NewVirtualSingle(epoch)
	model := &allocModel{clk: clk}
	if avg := testing.AllocsPerRun(50, func() {
		rt, err := Run[int, int](clk, model, allocActuator{}, allocSchedule, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if clk.Len() != 3 {
			t.Fatalf("runtime armed %d timers, want 3", clk.Len())
		}
		rt.Stop()
	}); avg != 2 {
		t.Fatalf("Run allocates %.1f times, want 2: the Runtime and its prediction queue", avg)
	}
}
