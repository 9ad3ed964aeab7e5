package sol

// Integration tests for the public facade: an agent written purely
// against package sol must behave identically to one written against
// internal/core, and the three paper agents must run end to end through
// the same runtime.

import (
	"errors"
	"testing"
	"time"
)

type facadeModel struct {
	clk      Clock
	collects int
	bad      bool
	assessOK bool
}

func (m *facadeModel) CollectData() (float64, error) {
	m.collects++
	if m.bad {
		return -1, nil
	}
	return float64(m.collects), nil
}

func (m *facadeModel) ValidateData(v float64) error {
	if v < 0 {
		return errors.New("negative reading")
	}
	return nil
}

func (m *facadeModel) CommitData(time.Time, float64) {}
func (m *facadeModel) UpdateModel()                  {}

func (m *facadeModel) Predict() (Prediction[string], error) {
	return Prediction[string]{Value: "learned", Expires: m.clk.Now().Add(time.Second)}, nil
}

func (m *facadeModel) DefaultPredict() Prediction[string] {
	return Prediction[string]{Value: "default", Expires: m.clk.Now().Add(time.Second)}
}

func (m *facadeModel) AssessModel() bool { return m.assessOK }

type facadeActuator struct {
	got     []string
	cleaned int
}

func (a *facadeActuator) TakeAction(p *Prediction[string]) {
	if p == nil {
		a.got = append(a.got, "none")
		return
	}
	a.got = append(a.got, p.Value)
}
func (a *facadeActuator) AssessPerformance() bool { return true }
func (a *facadeActuator) Mitigate()               {}
func (a *facadeActuator) CleanUp()                { a.cleaned++ }

func facadeSchedule() Schedule {
	return Schedule{
		DataPerEpoch:           5,
		DataCollectInterval:    10 * time.Millisecond,
		MaxEpochTime:           100 * time.Millisecond,
		AssessModelEvery:       1,
		MaxActuationDelay:      200 * time.Millisecond,
		AssessActuatorInterval: 100 * time.Millisecond,
	}
}

func TestFacadeAgentLifecycle(t *testing.T) {
	start := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := NewVirtualClock(start)
	m := &facadeModel{clk: clk, assessOK: true}
	a := &facadeActuator{}
	rt, err := Run[float64, string](clk, m, a, facadeSchedule(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunFor(time.Second)
	rt.Stop()
	rt.Stop()

	if a.cleaned != 1 {
		t.Fatalf("CleanUp ran %d times, want 1", a.cleaned)
	}
	st := rt.Stats()
	if st.PredictionsIssued == 0 || st.Actions == 0 {
		t.Fatalf("facade runtime did nothing: %+v", st)
	}
	sawLearned := false
	for _, g := range a.got {
		if g == "learned" {
			sawLearned = true
		}
	}
	if !sawLearned {
		t.Fatal("actuator never received a learned prediction")
	}
}

func TestFacadeValidationAndInterception(t *testing.T) {
	start := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := NewVirtualClock(start)
	m := &facadeModel{clk: clk, assessOK: false, bad: true}
	a := &facadeActuator{}
	rt, err := Run[float64, string](clk, m, a, facadeSchedule(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	clk.RunFor(time.Second)
	st := rt.Stats()
	if st.DataRejected == 0 {
		t.Fatal("bad data not rejected through the facade")
	}
	if st.EpochShortCircuits == 0 || st.DefaultPredictions == 0 {
		t.Fatalf("epochs did not fall back to defaults: %+v", st)
	}
	for _, g := range a.got {
		if g == "learned" {
			t.Fatal("learned prediction leaked despite all-bad data")
		}
	}
}

func TestRealClockConstructor(t *testing.T) {
	clk := NewRealClock()
	if clk.Now().IsZero() {
		t.Fatal("real clock returned zero time")
	}
}

// TestFacadeSpecKinds: importing the facade alone must make the
// built-in agent kinds resolvable — external consumers cannot import
// the internal agent packages themselves.
func TestFacadeSpecKinds(t *testing.T) {
	kinds := RegisteredKinds()
	want := map[string]bool{"harvest": false, "memory": false, "overclock": false, "sampler": false}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("kind %q not resolvable through the facade (have %v)", k, kinds)
		}
	}
}
