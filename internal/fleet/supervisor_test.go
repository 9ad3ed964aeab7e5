package fleet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/spec"
)

var testEpoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// testModel is a minimal Model whose assessment can be programmed to
// fail from a given epoch on.
type testModel struct {
	clk       clock.Clock
	ttl       time.Duration
	epochs    int
	failFrom  int // AssessModel returns false from this epoch on (0 = never fails)
	collected int
	mu        sync.Mutex
}

func (m *testModel) CollectData() (int, error) {
	m.mu.Lock()
	m.collected++
	m.mu.Unlock()
	return 1, nil
}
func (m *testModel) ValidateData(int) error    { return nil }
func (m *testModel) CommitData(time.Time, int) {}
func (m *testModel) UpdateModel()              { m.epochs++ }
func (m *testModel) Predict() (core.Prediction[int], error) {
	return core.Prediction[int]{Value: m.epochs, Expires: m.clk.Now().Add(m.ttl)}, nil
}
func (m *testModel) DefaultPredict() core.Prediction[int] { return core.Prediction[int]{} }
func (m *testModel) AssessModel() bool {
	return m.failFrom == 0 || m.epochs < m.failFrom
}

// testActuator counts actions and can be programmed to fail its
// performance assessment during a virtual-time window.
type testActuator struct {
	clk      clock.Clock
	badFrom  time.Time // AssessPerformance fails in [badFrom, badTo)
	badTo    time.Time
	log      *launchLog // checked out of at CleanUp; nil when unlogged
	mu       sync.Mutex
	actions  int
	cleanups int
	mitig    int
}

func (a *testActuator) TakeAction(*core.Prediction[int]) {
	a.mu.Lock()
	a.actions++
	a.mu.Unlock()
}
func (a *testActuator) AssessPerformance() bool {
	if a.badFrom.IsZero() {
		return true
	}
	now := a.clk.Now()
	return now.Before(a.badFrom) || !now.Before(a.badTo)
}
func (a *testActuator) Mitigate() {
	a.mu.Lock()
	a.mitig++
	a.mu.Unlock()
}
func (a *testActuator) CleanUp() {
	a.mu.Lock()
	a.cleanups++
	a.mu.Unlock()
	if a.log != nil {
		a.log.checkOut()
	}
}

// testKind is the synthetic agent kind the supervisor tests deploy: a
// testModel/testActuator pair configured by testConfig.
const testKind = "fleet-test"

// testConfig parameterizes one synthetic agent.
type testConfig struct {
	// TTL is every prediction's lifetime.
	TTL time.Duration
	// FailModelFrom makes AssessModel fail from this epoch on (0 never).
	FailModelFrom int
	// BadFrom and BadTo, offsets from testEpoch, bound the window in
	// which AssessPerformance fails; a zero BadTo means no window.
	BadFrom, BadTo time.Duration
	// Log names the launchLog this agent's launches are recorded in
	// (empty: not recorded).
	Log string
	// FailAttempt makes the Log's launch attempt with this number,
	// counting from 1, fail (0: none fails).
	FailAttempt int
}

// testSchedule is the synthetic kind's default schedule.
var testSchedule = core.Schedule{
	DataPerEpoch: 4, DataCollectInterval: 100 * time.Millisecond,
	MaxEpochTime: 800 * time.Millisecond, AssessModelEvery: 1,
	MaxActuationDelay: 500 * time.Millisecond, AssessActuatorInterval: time.Second,
}

func init() {
	spec.Register(testKind, spec.Variant[testConfig]{Name: "baseline", Config: testConfig{TTL: time.Second}, Schedule: testSchedule}, func(env spec.NodeEnv, v spec.Variant[testConfig]) (core.Handle, error) {
		c := v.Config
		a := &testActuator{clk: env.Clock}
		if c.BadTo > 0 {
			a.badFrom, a.badTo = testEpoch.Add(c.BadFrom), testEpoch.Add(c.BadTo)
		}
		if c.Log != "" {
			l, ok := launchLogs.Load(c.Log)
			if !ok {
				return nil, fmt.Errorf("no launch log %q", c.Log)
			}
			a.log = l.(*launchLog)
			if err := a.log.checkIn(a, c.FailAttempt); err != nil {
				return nil, err
			}
		}
		m := &testModel{clk: env.Clock, ttl: c.TTL, failFrom: c.FailModelFrom}
		return core.Run[int, int](env.Clock, m, a, v.Schedule, env.Options)
	})
}

// testAgent returns the spec deploying exactly v on the synthetic kind.
func testAgent(t testing.TB, v spec.Variant[testConfig]) spec.Agent {
	t.Helper()
	params, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Agent{Kind: testKind, Params: params}
}

// launchLog records every synthetic agent launched under one Log name
// and how many of them are live — launched, CleanUp not yet run.
type launchLog struct {
	name       string
	mu         sync.Mutex
	attempts   int
	acts       []*testActuator
	live, peak int
}

var (
	launchLogs sync.Map // Log name -> *launchLog
	logSeq     atomic.Int64
)

// newLaunchLog returns an empty launch log registered, for the test's
// lifetime, under a name no other test run shares.
func newLaunchLog(t testing.TB) *launchLog {
	l := &launchLog{name: fmt.Sprintf("%s#%d", t.Name(), logSeq.Add(1))}
	launchLogs.Store(l.name, l)
	t.Cleanup(func() { launchLogs.Delete(l.name) })
	return l
}

// checkIn records a launch attempt, failing it if it is attempt
// number failAttempt.
func (l *launchLog) checkIn(a *testActuator, failAttempt int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempts++
	if l.attempts == failAttempt {
		return fmt.Errorf("launch attempt %d fails by design", l.attempts)
	}
	l.acts = append(l.acts, a)
	l.live++
	l.peak = max(l.peak, l.live)
	return nil
}

func (l *launchLog) checkOut() {
	l.mu.Lock()
	l.live--
	l.mu.Unlock()
}

// launched returns the actuators launched so far, in launch order.
func (l *launchLog) launched() []*testActuator {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*testActuator(nil), l.acts...)
}

// leaked returns how many launched agents never ran CleanUp.
func (l *launchLog) leaked() int {
	n := 0
	for _, a := range l.launched() {
		a.mu.Lock()
		if a.cleanups == 0 {
			n++
		}
		a.mu.Unlock()
	}
	return n
}

// colocate builds a supervisor with three heterogeneous synthetic
// agents on one virtual clock, logged under log:
//
//   - fast: 50 ms collections, 500 ms actuation deadline, healthy.
//   - flaky-act: its actuator safeguard fails between t=10s and
//     t=20s, so it must halt, mitigate once, and resume.
//   - flaky-model: its model fails assessment from epoch 8 on, so its
//     predictions are intercepted but its actuator keeps acting on
//     defaults.
func colocate(t testing.TB, clk clock.Clock, log string) *Supervisor {
	t.Helper()
	sup := NewSupervisor(spec.NodeEnv{Clock: clk})
	members := []struct {
		name string
		v    spec.Variant[testConfig]
	}{
		{"fast", spec.Variant[testConfig]{
			Config: testConfig{TTL: time.Second, Log: log},
			Schedule: core.Schedule{
				DataPerEpoch: 4, DataCollectInterval: 50 * time.Millisecond,
				MaxEpochTime: 400 * time.Millisecond, AssessModelEvery: 1,
				MaxActuationDelay: 500 * time.Millisecond, AssessActuatorInterval: time.Second,
			},
		}},
		{"flaky-act", spec.Variant[testConfig]{
			Config: testConfig{TTL: 2 * time.Second, BadFrom: 10 * time.Second, BadTo: 20 * time.Second, Log: log},
			Schedule: core.Schedule{
				DataPerEpoch: 5, DataCollectInterval: 100 * time.Millisecond,
				MaxEpochTime: time.Second, AssessModelEvery: 1,
				MaxActuationDelay: time.Second, AssessActuatorInterval: time.Second,
			},
		}},
		{"flaky-model", spec.Variant[testConfig]{
			Config: testConfig{TTL: 4 * time.Second, FailModelFrom: 8, Log: log},
			Schedule: core.Schedule{
				DataPerEpoch: 5, DataCollectInterval: 200 * time.Millisecond,
				MaxEpochTime: 2 * time.Second, AssessModelEvery: 1,
				MaxActuationDelay: 2 * time.Second, AssessActuatorInterval: 2 * time.Second,
			},
		}},
	}
	for _, m := range members {
		if err := sup.LaunchSpec(m.name, testAgent(t, m.v)); err != nil {
			t.Fatal(err)
		}
	}
	return sup
}

// TestSupervisorColocatedDeadlines is the deterministic virtual-clock
// proof that three co-located heterogeneous agents each keep their
// MaxActuationDelay deadlines and that safeguards fire independently:
// one agent's actuator halt and another's model interception leave
// the remaining agents' loops untouched.
func TestSupervisorColocatedDeadlines(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(testEpoch)
	sup := colocate(t, clk, "")
	defer sup.StopAll()

	// Mid-run (t=15s): flaky-act's safeguard window is active, so it
	// alone must be halted; flaky-model has passed epoch 8, so it
	// alone must be intercepting.
	clk.RunFor(15 * time.Second)
	byName := statusByName(sup.Status())
	if !byName["flaky-act"].Halted {
		t.Fatal("flaky-act not halted inside its bad window")
	}
	if byName["fast"].Halted || byName["flaky-model"].Halted {
		t.Fatal("actuator halt leaked to a co-located agent")
	}
	if !byName["flaky-model"].ModelFailing {
		t.Fatal("flaky-model not failing assessment after epoch 8")
	}
	if byName["fast"].ModelFailing || byName["flaky-act"].ModelFailing {
		t.Fatal("model interception leaked to a co-located agent")
	}
	// The healthy agents must still be acting while flaky-act is
	// halted: fast has a 500 ms deadline, so by t=15s it met its
	// floor of 30 actions.
	window := 15 * time.Second
	if got, want := byName["fast"].Stats.Actions, byName["fast"].DeadlineFloor(window); got < want {
		t.Fatalf("fast took %d actions in %v, deadline floor is %d", got, window, want)
	}

	// End of run (t=30s): flaky-act's window has passed, so its
	// safeguard must have released the halt.
	clk.RunFor(15 * time.Second)
	byName = statusByName(sup.Status())
	if byName["flaky-act"].Halted {
		t.Fatal("flaky-act still halted after its bad window cleared")
	}
	st := byName["flaky-act"].Stats
	if st.ActuatorSafeguardTriggers != 1 || st.Mitigations != 1 || st.ActuatorResumes != 1 {
		t.Fatalf("flaky-act safeguard cycle = triggers %d, mitigations %d, resumes %d; want 1/1/1",
			st.ActuatorSafeguardTriggers, st.Mitigations, st.ActuatorResumes)
	}
	// Deadline floors over the full horizon. flaky-act was halted for
	// ~10 s, so its floor shrinks by that window; the other two must
	// meet the full-horizon floor exactly as if they ran alone.
	full := 30 * time.Second
	for _, name := range []string{"fast", "flaky-model"} {
		got, want := byName[name].Stats.Actions, byName[name].DeadlineFloor(full)
		if got < want {
			t.Fatalf("%s took %d actions in %v, deadline floor is %d", name, got, full, want)
		}
	}
	if got, want := byName["flaky-act"].Stats.Actions, byName["flaky-act"].DeadlineFloor(20*time.Second); got < want {
		t.Fatalf("flaky-act took %d actions in its 20s of unhalted time, floor is %d", got, want)
	}
	// The intercepted model keeps the actuator fed with defaults.
	fm := byName["flaky-model"].Stats
	if fm.PredictionsIntercepted == 0 || fm.ActionsOnDefault == 0 {
		t.Fatalf("flaky-model: intercepted=%d on-default=%d, want both > 0",
			fm.PredictionsIntercepted, fm.ActionsOnDefault)
	}
}

// TestSupervisorDeterminism runs the same co-location twice and
// requires identical snapshots.
func TestSupervisorDeterminism(t *testing.T) {
	t.Parallel()
	run := func() []MemberStatus {
		clk := clock.NewVirtual(testEpoch)
		sup := colocate(t, clk, "")
		clk.RunFor(20 * time.Second)
		st := sup.Status()
		sup.StopAll()
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("virtual-clock supervisor runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSupervisorStandardNode runs the paper's three production agents
// co-located via StandardNode on a virtual clock and checks the
// actuation deadline floors of the node-bound agents.
func TestSupervisorStandardNode(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(testEpoch)
	sup, err := StandardNode(StandardNodeConfig{Seed: 7})(0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.StopAll()
	const window = 10 * time.Second
	clk.RunFor(window)

	statuses := sup.Status()
	if len(statuses) != 3 {
		t.Fatalf("standard node has %d members, want 3", len(statuses))
	}
	for _, st := range statuses {
		if st.Stats.DataCollected == 0 {
			t.Fatalf("%s collected no data", st.Kind)
		}
		if st.Stats.ActuatorSafeguardTriggers == 0 && !st.Halted {
			if got, want := st.Stats.Actions, st.DeadlineFloor(window); got < want {
				t.Fatalf("%s took %d actions in %v, deadline floor is %d", st.Kind, got, window, want)
			}
		}
	}
}

// TestSupervisorAttachErrors covers the LaunchSpec error paths: a spec
// with no kind or an unregistered one, a duplicate member name, and a
// stopped supervisor.
func TestSupervisorAttachErrors(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(testEpoch)
	sup := NewSupervisor(spec.NodeEnv{Clock: clk})
	if err := sup.LaunchSpec("x", spec.Agent{}); err == nil {
		t.Fatal("spec without kind accepted")
	}
	if err := sup.LaunchSpec("x", spec.Agent{Kind: "no-such-kind"}); err == nil {
		t.Fatal("unregistered kind accepted")
	}
	log := newLaunchLog(t)
	a := testAgent(t, spec.Variant[testConfig]{Config: testConfig{TTL: time.Second, Log: log.name}, Schedule: testSchedule})
	if err := sup.LaunchSpec("", a); err == nil {
		t.Fatal("member without name accepted")
	}
	if err := sup.LaunchSpec("x", a); err != nil {
		t.Fatalf("valid launch rejected: %v", err)
	}
	if err := sup.LaunchSpec("x", a); err == nil {
		t.Fatal("duplicate name accepted")
	}
	sup.StopAll()
	sup.StopAll() // idempotent
	if err := sup.LaunchSpec("y", a); err == nil {
		t.Fatal("launch after StopAll accepted")
	}
	// The refused launches never started an agent.
	if n := len(log.launched()); n != 1 {
		t.Fatalf("%d agents launched, want only the one accepted", n)
	}
	if n := log.leaked(); n != 0 {
		t.Fatalf("%d agents outlived StopAll", n)
	}
}

// TestSupervisorRealClock exercises the supervisor with three
// co-located agents on the wall clock, with concurrent status reads —
// this is the test the race detector patrols.
func TestSupervisorRealClock(t *testing.T) {
	t.Parallel()
	clk := clock.NewReal()
	sup := NewSupervisor(spec.NodeEnv{Clock: clk})
	a := testAgent(t, spec.Variant[testConfig]{
		Config: testConfig{TTL: 100 * time.Millisecond},
		Schedule: core.Schedule{
			DataPerEpoch: 2, DataCollectInterval: 5 * time.Millisecond,
			MaxEpochTime: 50 * time.Millisecond, AssessModelEvery: 1,
			MaxActuationDelay: 20 * time.Millisecond, AssessActuatorInterval: 25 * time.Millisecond,
		},
	})
	for _, name := range []string{"a", "b", "c"} {
		if err := sup.LaunchSpec(name, a); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = sup.Status()
					_ = sup.HealthDetailInto(nil)
				}
			}
		}()
	}
	time.Sleep(150 * time.Millisecond) //sollint:allow walltime real-clock race smoke paces itself on the wall clock
	close(done)
	wg.Wait()
	sup.StopAll()

	for _, st := range sup.Status() {
		if st.Stats.Actions == 0 {
			t.Fatalf("real-clock member %s never acted", st.Name)
		}
	}
}

func statusByName(sts []MemberStatus) map[string]MemberStatus {
	out := make(map[string]MemberStatus, len(sts))
	for _, st := range sts {
		out[st.Name] = st
	}
	return out
}
