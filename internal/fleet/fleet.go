package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/faults"
	"sol/internal/obs"
	"sol/internal/shard"
)

// NodeFunc builds one node of the fleet: it constructs the node's
// simulated substrate on clk (node, memory, telemetry), launches the
// agents, and returns their supervisor. idx is the node's index in
// [0, Nodes); implementations use it to vary workloads and seeds so
// the fleet is heterogeneous but deterministic.
type NodeFunc func(idx int, clk *clock.Virtual) (*Supervisor, error)

// Config describes a fleet simulation.
type Config struct {
	// Nodes is the number of simulated nodes. Must be >= 1.
	Nodes int
	// Duration is the simulated horizon per node. Must be positive.
	Duration time.Duration
	// Setup builds each node. Must be non-nil and safe to call from
	// multiple goroutines concurrently (each call receives its own
	// clock and must build node-private state only).
	Setup NodeFunc
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Shards partitions the fleet on the sharded conductor that drives
	// both Run and the Coordinator: each shard gets its own barrier and
	// worker allotment and advances independently between conductor
	// alignments. 0 means 1. A pure scaling knob — simulation output
	// never depends on it; a trace has one track per shard. See
	// internal/shard.
	Shards int
	// Lifecycle, when non-nil, schedules node-level crash/restart/
	// blackout faults over the horizon (see faults.NodePlan; times are
	// elapsed since DefaultStart). Each node's clock pauses at exactly the
	// plan's transition instants and the state is applied there — crash
	// via Supervisor.Crash, recovery via spec-driven Restart — by the
	// one stepper Run and the Coordinator share, so fault runs stay
	// byte-identical across drivers, worker counts, and shard counts.
	// Nil means no lifecycle faults and costs nothing.
	Lifecycle faults.NodePlan
	// Profile turns on the profile view of the conductor's probe
	// (internal/obs): the run's wall time is attributed per shard into
	// stepping / free-run / align / barrier-wait and published as
	// Report.Profile. Diagnostic only — a profiled run produces
	// byte-identical simulation output to an unprofiled one. Run
	// streams observed nodes like unobserved ones, so its profile
	// charges each node's build and teardown to the free-run phase —
	// diagnostic wall time, like every other *NS field.
	Profile bool
	// Trace turns on the trace view of the same probe: per-shard rings
	// of span / epoch / lifecycle events stamped with sim-time plus
	// heap telemetry, published as Report.Trace. Same contract as
	// Profile; Run's heap samples, taken at its one span barrier, see
	// only what outlives the streamed nodes. With both off there is no
	// probe, and every transition pays a single nil check.
	Trace bool
}

func (c Config) validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("fleet: Nodes = %d, must be >= 1", c.Nodes)
	case c.Duration <= 0:
		return fmt.Errorf("fleet: Duration = %v, must be positive", c.Duration)
	case c.Setup == nil:
		return fmt.Errorf("fleet: no Setup function")
	case c.Workers < 0:
		return fmt.Errorf("fleet: Workers = %d, must be >= 0", c.Workers)
	case c.Shards < 0:
		return fmt.Errorf("fleet: Shards = %d, must be >= 0", c.Shards)
	}
	return nil
}

func (c Config) workers() int {
	w := c.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > c.Nodes {
		w = c.Nodes
	}
	return w
}

// DefaultStart is the repository-wide virtual start instant: every
// fleet simulation's node clocks begin here. Exported so callers that
// phrase events in absolute virtual time (e.g. fault windows in
// rollout scenarios) anchor to the same epoch.
var DefaultStart = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// KindStats aggregates one agent kind across the fleet.
type KindStats struct {
	// Agents is how many agents of this kind ran.
	Agents int
	// Halted counts agents whose actuator safeguard was engaged at
	// the end of the horizon; ModelFailing likewise for the model
	// safeguard.
	Halted       int
	ModelFailing int
	// DeadlineMet counts agents that took at least their deadline
	// floor of actions (see MemberStatus.DeadlineFloor); agents whose
	// actuator safeguard ever halted them are exempt, since halting
	// is the sanctioned way to stop acting. DeadlineEligible is the
	// denominator (agents with a configured deadline, never halted).
	DeadlineMet      int
	DeadlineEligible int
	// Stats sums the runtime counters over all agents of the kind.
	Stats core.Stats
}

// Report is the aggregated outcome of a fleet run.
type Report struct {
	// Nodes and Agents are fleet-wide totals.
	Nodes  int
	Agents int
	// Duration is the simulated horizon each node ran.
	Duration time.Duration
	// Events is the total number of virtual-clock callbacks fired
	// across all nodes — the discrete-event cost of the simulation.
	Events uint64
	// Down and Restarting count nodes whose agent stack was not up at
	// the end of the horizon (crashed by the lifecycle plan and not
	// yet, or unsuccessfully, restarted). Restarts totals completed
	// crash/restart cycles fleet-wide. All zero without a lifecycle
	// plan.
	Down       int
	Restarting int
	Restarts   int
	// Kinds aggregates per agent kind.
	Kinds map[string]*KindStats
	// Profile is the run's per-shard wall-time attribution when
	// Config.Profile was set; nil otherwise (and then no profile: lines
	// render). Its counts are deterministic, its wall-time fields are
	// diagnostic only — see internal/obs for the split.
	Profile *obs.Profile
	// Trace is the run's flight-recorder export when Config.Trace was
	// set; nil otherwise (and then no heap: line renders). Not part of
	// the report wire form — traces ship in their own versioned files
	// (the CLIs' -trace flag).
	Trace *obs.Trace `json:"-"`
}

// KindNames returns the aggregated kinds, sorted.
func (r *Report) KindNames() []string {
	out := make([]string, 0, len(r.Kinds))
	for k := range r.Kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the report as a fleet-operator summary table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d nodes, %d agents, %v simulated, %d events\n",
		r.Nodes, r.Agents, r.Duration, r.Events)
	if r.Down+r.Restarting+r.Restarts > 0 {
		fmt.Fprintf(&b, "lifecycle: %d down, %d restarting, %d restarts\n",
			r.Down, r.Restarting, r.Restarts)
	}
	if r.Profile != nil && len(r.Profile.Shards) > 0 {
		// Line one is deterministic (counts only); line two carries the
		// wall-clock attribution and names the straggler — diagnostic,
		// never byte-identity-compared.
		fmt.Fprintf(&b, "profile: %s\n", r.Profile.CountsLine())
		fmt.Fprintf(&b, "profile: %s\n", r.Profile.Summary())
	}
	if r.Trace != nil {
		// Watermark values are diagnostic, never byte-identity-compared;
		// an untraced report gains zero lines here.
		if line := obs.HeapLine(r.Trace.Heap); line != "" {
			fmt.Fprintf(&b, "%s\n", line)
		}
	}
	fmt.Fprintf(&b, "%-10s %7s %9s %9s %9s %8s %7s %7s %7s %9s\n",
		"kind", "agents", "actions", "on-model", "default", "no-pred", "halted", "failing", "mitig", "deadline")
	for _, k := range r.KindNames() {
		ks := r.Kinds[k]
		deadline := "n/a"
		if ks.DeadlineEligible > 0 {
			deadline = fmt.Sprintf("%d/%d", ks.DeadlineMet, ks.DeadlineEligible)
		}
		fmt.Fprintf(&b, "%-10s %7d %9d %9d %9d %8d %7d %7d %7d %9s\n",
			k, ks.Agents, ks.Stats.Actions, ks.Stats.ActionsOnModel,
			ks.Stats.ActionsOnDefault, ks.Stats.ActionsWithoutPrediction,
			ks.Halted, ks.ModelFailing, ks.Stats.Mitigations, deadline)
	}
	return strings.TrimRight(b.String(), "\n")
}

// nodeResult is one node's snapshot — member statuses, lifecycle
// outcome and fired events — collected for deterministic aggregation
// in index order. Run takes it as each node finishes, the Coordinator
// at its current barrier; both reduce through aggregate. The statuses
// of a node with up to usualMembers members live in statusArr, so a
// nodeResult is filled in place and must not be copied afterwards.
type nodeResult struct {
	statuses  []MemberStatus
	statusArr [usualMembers]MemberStatus
	life      LifecycleState
	restarts  int
	events    uint64
	err       error
}

// snapshot reads node n's outcome into res. Take it before StopAll so
// end-of-horizon safeguard state is observed, not post-cleanup state.
func (n *simNode) snapshot(res *nodeResult) {
	res.statuses = n.sup.statusInto(res.statusArr[:0])
	res.life = n.sup.Lifecycle()
	res.restarts = n.sup.Restarts()
	res.events = n.clk.Fired()
}

// Run simulates the fleet to cfg.Duration as one free-running span of
// the sharded conductor (internal/shard), the same scheduler the
// Coordinator drives. Each node is built, advanced to the horizon
// (through the shared lifecycle stepper), snapshotted and stopped on
// the worker that owns it, so no more nodes are alive at once than the
// pool has workers (tested), observed or not. The aggregation is
// deterministic — running the same config twice yields an identical
// Report — because every node's simulation is single-goroutine
// deterministic and results merge in node-index order.
//
// Run is output-equivalent to RunStepped with interval = Duration,
// profile counts and trace bytes included (tested); RunStepped keeps
// every node resident, the price of mid-horizon observation.
//
// The first node error aborts the run (pending nodes are skipped) and
// is returned with a nil report.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	life := lifecycle{plan: cfg.Lifecycle}
	results := make([]nodeResult, cfg.Nodes)
	var abort atomic.Bool
	con, err := shard.New(shard.Config{
		Cells:   cfg.Nodes,
		Shards:  cfg.Shards,
		Workers: cfg.Workers,
		Profile: cfg.Profile,
		Trace:   cfg.Trace,
		Advance: func(idx int, d time.Duration) {
			if abort.Load() {
				return
			}
			life.runNode(cfg, idx, d, &results[idx])
			if results[idx].err != nil {
				abort.Store(true)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	life.probe = con.Probe()
	if life.plan != nil {
		life.probe.EnableLifecycle()
	}
	// The span cannot fail: it moves forward and has no stepping.
	_ = con.Run(shard.Span{Until: cfg.Duration})
	for i := range results {
		if err := results[i].err; err != nil {
			return nil, fmt.Errorf("fleet: node %d: %w", i, err)
		}
	}
	rep := aggregate(cfg.Duration, results)
	rep.Profile = life.probe.Profile()
	rep.Trace = life.probe.Trace()
	return rep, nil
}

// aggregate merges per-node snapshots into a fleet report, in
// node-index order so the result is deterministic regardless of which
// worker simulated which node. dur is the horizon ending at
// DefaultStart+dur; each member's deadline floor is judged over its own
// lifetime within that horizon (members redeployed mid-run by
// Supervisor.Replace have restarted counters, so holding them to the
// full-horizon floor would misreport them as non-compliant). Both Run
// and Coordinator.Report reduce through here, so the two views of the
// same fleet are directly comparable. Nodes that ended the horizon down
// or restarting had their members stopped mid-run, so their deadline
// compliance is not judged (the members' counters are frozen at the
// crash, and holding a dead node to an actuation floor would blame the
// variant for the node's death); without a lifecycle plan every node
// is up.
func aggregate(dur time.Duration, nodes []nodeResult) *Report {
	rep := &Report{
		Nodes:    len(nodes),
		Duration: dur,
		Kinds:    make(map[string]*KindStats),
	}
	for i := range nodes {
		node := &nodes[i]
		rep.Events += node.events
		rep.Restarts += node.restarts
		switch node.life {
		case LifecycleDown:
			rep.Down++
		case LifecycleRestarting:
			rep.Restarting++
		}
		up := node.life == LifecycleUp
		for _, st := range node.statuses {
			rep.Agents++
			ks := rep.Kinds[st.Kind]
			if ks == nil {
				ks = &KindStats{}
				rep.Kinds[st.Kind] = ks
			}
			ks.Agents++
			if st.Halted {
				ks.Halted++
			}
			if st.ModelFailing {
				ks.ModelFailing++
			}
			if up && st.MaxActuationDelay > 0 && st.Stats.ActuatorSafeguardTriggers == 0 {
				ks.DeadlineEligible++
				window := dur
				if !st.Stats.StartedAt.IsZero() {
					if lived := dur - st.Stats.StartedAt.Sub(DefaultStart); lived < window {
						window = lived
					}
				}
				if st.Stats.Actions >= st.DeadlineFloor(window) {
					ks.DeadlineMet++
				}
			}
			ks.Stats.Add(st.Stats)
		}
	}
	return rep
}

// runNode simulates node idx start to finish on the calling worker
// and releases it: build, apply the plan's t=0 state, advance by d
// through the lifecycle stepper, snapshot into res, stop.
func (l *lifecycle) runNode(cfg Config, idx int, d time.Duration, res *nodeResult) {
	n, err := buildNode(cfg, idx)
	if err != nil {
		res.err = err
		return
	}
	if l.plan != nil {
		l.apply(&n, idx, 0)
	}
	l.advance(&n, idx, d)
	n.snapshot(res)
	res.err = n.lifeErr
	n.sup.StopAll()
}
