package fleet

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/faults"
	"sol/internal/spec"
)

func TestFleetConfigValidation(t *testing.T) {
	t.Parallel()
	ok := Config{Nodes: 1, Duration: time.Second, Setup: StandardNode(StandardNodeConfig{})}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Nodes = 0 }},
		{"no duration", func(c *Config) { c.Duration = 0 }},
		{"no setup", func(c *Config) { c.Setup = nil }},
		{"negative workers", func(c *Config) { c.Workers = -1 }},
	} {
		cfg := ok
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: invalid config accepted", tc.name)
		}
	}
}

func TestFleetSetupErrorAborts(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	_, err := Run(Config{
		Nodes:    8,
		Duration: time.Second,
		Workers:  2,
		Setup: func(idx int, clk *clock.Virtual) (*Supervisor, error) {
			if idx == 3 {
				return nil, boom
			}
			return StandardNode(StandardNodeConfig{Kinds: []string{"overclock"}})(idx, clk)
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fleet error = %v, want wrapped %v", err, boom)
	}
}

// TestFleetAggregates runs a small fleet of standard nodes on the
// worker pool and checks the cross-fleet per-kind aggregation.
func TestFleetAggregates(t *testing.T) {
	t.Parallel()
	const nodes, dur = 8, 5 * time.Second
	rep, err := Run(Config{
		Nodes:    nodes,
		Duration: dur,
		Workers:  4,
		Setup:    StandardNode(StandardNodeConfig{Seed: 11}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != nodes || rep.Agents != nodes*len(StandardKinds) {
		t.Fatalf("report has %d nodes / %d agents, want %d / %d",
			rep.Nodes, rep.Agents, nodes, nodes*len(StandardKinds))
	}
	if rep.Events == 0 {
		t.Fatal("report counted no simulation events")
	}
	if got := rep.KindNames(); !reflect.DeepEqual(got, []string{"harvest", "memory", "overclock"}) {
		t.Fatalf("kinds = %v", got)
	}
	for _, kind := range rep.KindNames() {
		ks := rep.Kinds[kind]
		if ks.Agents != nodes {
			t.Fatalf("%s: %d agents, want %d", kind, ks.Agents, nodes)
		}
		if ks.Stats.DataCollected == 0 {
			t.Fatalf("%s: no data collected in aggregate: %+v", kind, ks.Stats)
		}
		if ks.DeadlineMet != ks.DeadlineEligible {
			t.Fatalf("%s: only %d/%d never-halted agents met their actuation deadline floor",
				kind, ks.DeadlineMet, ks.DeadlineEligible)
		}
	}
	// SmartMemory's 38.4 s learning epoch and 45 s actuation deadline
	// exceed this horizon; the two fast agents must have completed
	// epochs and acted on every node.
	for _, kind := range []string{"overclock", "harvest"} {
		ks := rep.Kinds[kind]
		if ks.Stats.PredictionsIssued == 0 || ks.Stats.Actions == 0 {
			t.Fatalf("%s: issued=%d actions=%d, want both > 0",
				kind, ks.Stats.PredictionsIssued, ks.Stats.Actions)
		}
	}
	// The 100 ms-deadline harvest agents dominate actions; sanity-check
	// the fleet-wide floor: 8 agents x 50 deadline fires minimum.
	if hv := rep.Kinds["harvest"]; hv.Stats.Actions < uint64(nodes)*uint64(dur/(100*time.Millisecond)) {
		t.Fatalf("harvest aggregate actions = %d, below the fleet-wide deadline floor", hv.Stats.Actions)
	}
	if rep.String() == "" || len(rep.String()) < 100 {
		t.Fatalf("report renders too little:\n%s", rep)
	}
}

// TestFleetDeterminism requires identical aggregate reports across
// runs and across worker-pool widths: parallelism must not leak into
// results.
func TestFleetDeterminism(t *testing.T) {
	t.Parallel()
	run := func(workers int) *Report {
		rep, err := Run(Config{
			Nodes:    6,
			Duration: 3 * time.Second,
			Workers:  workers,
			Setup:    StandardNode(StandardNodeConfig{Seed: 3}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("fleet reports diverged between 1 and 4 workers:\n%v\nvs\n%v", serial, parallel)
	}
	if again := run(4); !reflect.DeepEqual(parallel, again) {
		t.Fatalf("fleet reports diverged across identical runs:\n%v\nvs\n%v", parallel, again)
	}
}

// TestFleetHeterogeneous checks that node setups can differ per index
// and that per-node workload variation produces a fleet that is not in
// lockstep (different nodes report different counter totals).
func TestFleetHeterogeneous(t *testing.T) {
	t.Parallel()
	std := StandardNode(StandardNodeConfig{Seed: 5, Kinds: AllKinds})
	rep, err := Run(Config{
		Nodes:    4,
		Duration: 4 * time.Second,
		Workers:  2,
		Setup:    std,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Agents != 4*len(AllKinds) {
		t.Fatalf("agents = %d, want %d", rep.Agents, 4*len(AllKinds))
	}
	if _, ok := rep.Kinds["sampler"]; !ok {
		t.Fatal("sampler kind missing from aggregate")
	}
}

// TestRunStreamsNodes pins that Run streams whether or not it is
// observed: every node is built, run and released on the worker that
// owns it, so no more nodes are ever alive than the pool has workers,
// at any shard count, with profiling, tracing and a lifecycle plan on.
// Observation changes nothing the report says.
func TestRunStreamsNodes(t *testing.T) {
	t.Parallel()
	const nodes, workers = 24, 3
	// Every node runs one synthetic agent, checked into the log at
	// launch and out at CleanUp: the log's live count is the nodes alive.
	g := newLaunchLog(t)
	a := testAgent(t, spec.Variant[testConfig]{
		Config: testConfig{TTL: time.Second, Log: g.name},
		Schedule: core.Schedule{
			DataPerEpoch: 4, DataCollectInterval: 50 * time.Millisecond,
			MaxEpochTime: 400 * time.Millisecond, AssessModelEvery: 1,
			MaxActuationDelay: 500 * time.Millisecond, AssessActuatorInterval: time.Second,
		},
	})
	cfg := Config{
		Nodes:    nodes,
		Duration: time.Second,
		Workers:  workers,
		Setup: func(idx int, clk *clock.Virtual) (*Supervisor, error) {
			sup := NewSupervisor(spec.NodeEnv{Clock: clk})
			return sup, sup.LaunchSpec("gauge", a)
		},
		Lifecycle: faults.Crash{At: 700 * time.Millisecond, Frac: 0.25, Seed: 7},
	}
	run := func(cfg Config) *Report {
		t.Helper()
		g.peak = 0
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g.peak < 1 || g.peak > workers || g.live != 0 {
			t.Fatalf("shards %d, profile %v, trace %v: %d nodes alive at peak, %d left alive; want at most the %d workers and 0",
				cfg.Shards, cfg.Profile, cfg.Trace, g.peak, g.live, workers)
		}
		return rep
	}
	streamed := run(cfg).String()
	if !strings.Contains(streamed, "lifecycle:") {
		t.Fatalf("plan injected no lifecycle outcome — the test is vacuous:\n%s", streamed)
	}
	for _, shards := range []int{0, 4} {
		c := cfg
		c.Shards, c.Profile, c.Trace = shards, true, true
		observed := run(c)
		if observed.Profile == nil || observed.Trace == nil {
			t.Fatalf("shards %d: observed run carries profile %v, trace %v", shards, observed.Profile != nil, observed.Trace != nil)
		}
		observed.Profile, observed.Trace = nil, nil
		if got := observed.String(); got != streamed {
			t.Fatalf("shards %d: observed and unobserved reports differ:\n%s\nvs\n%s", shards, got, streamed)
		}
	}
}
