package fleet

import (
	"fmt"
	"time"

	"sol/internal/clock"
	"sol/internal/faults"
	"sol/internal/obs"
	"sol/internal/shard"
)

// Coordinator drives a fleet in lockstep epochs on top of the sharded
// conductor (internal/shard): the fleet is partitioned into
// Config.Shards shards, each with its own barrier and worker
// allotment, and the conductor aligns them at span boundaries. At an
// alignment the whole fleet is quiescent — no callbacks in flight
// anywhere — so a controller may observe aggregated health and
// redeploy members (Supervisor.Replace) without racing the simulation.
// This is the mid-horizon observation and control Run, which streams
// nodes through a single span, cannot provide, and it is what the
// rollout control plane is built on.
//
// StepFor is a fleet-wide barrier (one free-running span: every node
// advances to it, whatever the shard count), while Span exposes the
// conductor's real power: only the cells that need mid-span observation
// advance epoch by epoch, everything else free-runs to the next
// alignment. Its conductor's one probe (Probe) hears every span
// transition and serves wall-time attribution (Config.Profile) and the
// trace of spans, lifecycle events and heap samples (Config.Trace) —
// the same probe a Run's single span reports to.
//
// The result is exactly as deterministic as Run: the same config
// driven to the same total horizon yields a byte-identical report,
// whatever the worker count, epoch length, shard count, or stepping
// pattern — per-node simulations are independent, so how their time is
// sliced is unobservable in the aggregate.
type Coordinator struct {
	cfg     Config
	nodes   []simNode
	con     *shard.Conductor
	stopped bool
	lifecycle
}

// simNode is one simulated node: its clock, its supervisor, and its
// lifecycle-fault state (unused without a plan).
type simNode struct {
	clk *clock.Virtual
	sup *Supervisor
	// dark is whether the node is currently observability-dark: written
	// only by the worker advancing the node, read only with the node
	// quiescent. lifeErr is the node's first restart failure, surfaced
	// at the next alignment (Span, RunStepped) or, in Run, with the
	// node's snapshot.
	dark    bool
	lifeErr error
}

// lifecycle steps nodes under the fleet's lifecycle fault plan — the
// one implementation of "advance this node by d, pausing at the plan's
// transition instants" that Run and the Coordinator share, which is
// what keeps fault runs byte-identical across them. A nil plan means
// no faults and costs advance one nil check.
type lifecycle struct {
	plan faults.NodePlan
	// probe is the driving conductor's probe: nil when profiling and
	// tracing are off. Every method is nil-safe.
	probe *obs.Probe
}

// NewCoordinator builds every node of the fleet (in parallel on the
// worker pool) at the virtual start instant, without advancing time,
// and partitions it into cfg.Shards shards (0 means 1). cfg.Duration
// is the default horizon RunStepped drives; Coordinator itself steps
// freely. The first setup error stops the already-built nodes and is
// returned.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		nodes:     make([]simNode, cfg.Nodes),
		lifecycle: lifecycle{plan: cfg.Lifecycle},
	}
	errs := make([]error, cfg.Nodes)
	c.forEachNode(func(idx int) {
		c.nodes[idx], errs[idx] = buildNode(cfg, idx)
	})
	for idx, err := range errs {
		if err != nil {
			c.StopAll()
			return nil, fmt.Errorf("fleet: node %d: %w", idx, err)
		}
	}
	con, err := shard.New(shard.Config{
		Cells:   cfg.Nodes,
		Shards:  cfg.Shards,
		Workers: cfg.Workers,
		Advance: c.advanceCell,
		Profile: cfg.Profile,
		Trace:   cfg.Trace,
	})
	if err != nil {
		c.StopAll()
		return nil, err
	}
	c.con = con
	c.probe = con.Probe()
	if c.plan != nil {
		c.probe.EnableLifecycle()
		// Apply the plan's initial state (a Crash at 0 downs its nodes
		// before any time passes). This runs after the conductor exists
		// so the probe sees the t=0 transitions.
		c.forEachNode(func(idx int) { c.apply(&c.nodes[idx], idx, 0) })
	}
	return c, nil
}

// buildNode builds node idx on a fresh clock at the virtual start
// instant, without advancing time. The node's whole simulation —
// substrate ticks, agent loops, supervision — only ever runs on the one
// worker goroutine that is advancing it, which is the one-driver
// contract a Virtual clock requires.
func buildNode(cfg Config, idx int) (simNode, error) {
	clk := clock.NewVirtual(DefaultStart)
	sup, err := cfg.Setup(idx, clk)
	if err == nil && sup == nil {
		err = fmt.Errorf("setup returned no supervisor")
	}
	if err != nil {
		return simNode{}, err
	}
	return simNode{clk: clk, sup: sup}, nil
}

// forEachNode runs fn(idx) for every node index on the shared worker
// pool and waits for all to finish — a fleet-wide barrier.
func (c *Coordinator) forEachNode(fn func(idx int)) {
	shard.ForEach(len(c.nodes), c.cfg.workers(), fn)
}

// advanceCell is the conductor's Advance binding: move node cell's
// clock forward by d.
func (c *Coordinator) advanceCell(cell int, d time.Duration) {
	c.advance(&c.nodes[cell], cell, d)
}

// advance moves node idx's clock forward by d. Without a lifecycle plan
// it is a single RunFor; with one, the advance is segmented at exactly
// the plan's transition instants (boundary-inclusive: a transition
// landing on the advance's end is applied by this advance, so every
// epoch/span slicing sees it at the same instant) and the state is
// applied at each pause.
func (l *lifecycle) advance(n *simNode, idx int, d time.Duration) {
	if l.plan == nil {
		n.clk.RunFor(d)
		return
	}
	now := n.clk.Now().Sub(DefaultStart)
	target := now + d
	for {
		next, ok := l.plan.Next(idx, now)
		if !ok || next > target {
			break
		}
		if next > now {
			n.clk.RunFor(next - now)
		}
		now = next
		l.apply(n, idx, now)
	}
	if target > now {
		n.clk.RunFor(target - now)
	}
}

// apply applies the lifecycle plan's state for node idx at elapsed
// time at: crash a node scheduled down, restart a down node scheduled
// up again, record the dark flag. The first restart failure is
// remembered on the node; the transition itself is idempotent, so
// merged plans naming spurious instants are harmless. Only edges reach
// the probe, not every idempotent re-application.
func (l *lifecycle) apply(n *simNode, idx int, at time.Duration) {
	st := l.plan.State(idx, at)
	if nowDark := st == faults.NodeDark; nowDark != n.dark {
		n.dark = nowDark
		kind := obs.EvNodeLit
		if nowDark {
			kind = obs.EvNodeDark
		}
		l.probe.StageNode(idx, kind, int64(at))
	}
	if st == faults.NodeDown {
		if n.sup.Lifecycle() == LifecycleUp {
			l.probe.StageNode(idx, obs.EvNodeDown, int64(at))
		}
		n.sup.Crash()
		return
	}
	if n.sup.Lifecycle() != LifecycleUp {
		if err := n.sup.Restart(); err != nil {
			if n.lifeErr == nil {
				n.lifeErr = err
			}
			return
		}
		l.probe.StageNode(idx, obs.EvNodeUp, int64(at))
	}
}

// HasLifecycle reports whether a lifecycle fault plan is configured —
// the cheap guard that lets fault-aware callers keep their fault-free
// fast paths allocation- and branch-identical to before.
func (c *Coordinator) HasLifecycle() bool { return c.plan != nil }

// NodeDown reports whether node idx's agent stack is currently not up
// (crashed and not yet successfully restarted). Down nodes cannot be
// observed or redeployed; the control plane skips them and judges the
// cohort by quorum.
func (c *Coordinator) NodeDown(idx int) bool {
	return c.plan != nil && c.nodes[idx].sup.Lifecycle() != LifecycleUp
}

// NodeDark reports whether node idx is currently observability-dark:
// its agents run but health reports are unavailable. Only read with
// the node quiescent (at a barrier, or from its shard's OnEpoch).
func (c *Coordinator) NodeDark(idx int) bool { return c.plan != nil && c.nodes[idx].dark }

// NodeTransitions reports whether the lifecycle plan schedules any
// state change for node idx in (from, until] — the criterion for
// whether a down node must still be stepped through a span (its state
// may change mid-span) or can be skipped entirely (constant state, so
// reading it mid-span is safe even while its clock free-runs).
func (c *Coordinator) NodeTransitions(idx int, from, until time.Duration) bool {
	if c.plan == nil {
		return false
	}
	next, ok := c.plan.Next(idx, from)
	return ok && next <= until
}

// LifecycleErr returns the first node's recorded restart failure, if
// any — set when a spec-driven Restart failed. Span and RunStepped
// check it automatically; callers using StepFor directly under a
// lifecycle plan should poll it.
func (c *Coordinator) LifecycleErr() error {
	if c.plan == nil {
		return nil
	}
	for idx := range c.nodes {
		if err := c.nodes[idx].lifeErr; err != nil {
			return fmt.Errorf("fleet: node %d: %w", idx, err)
		}
	}
	return nil
}

// Nodes returns the fleet size.
func (c *Coordinator) Nodes() int { return len(c.nodes) }

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return c.con.Shards() }

// Conductor returns the sharded conductor driving this fleet, for
// callers (the control plane, benchmarks) that schedule their own
// spans. The conductor's cells are node indexes and its Advance is
// already bound to the node clocks; only drive it between Coordinator
// calls, never after StopAll.
func (c *Coordinator) Conductor() *shard.Conductor { return c.con }

// Probe returns the conductor's probe (nil when profiling and tracing
// are off), for callers that record their own events — the control
// plane hangs campaign decisions on it — or snapshot a view mid-run.
// Every method is nil-safe; only snapshot with the fleet quiescent
// (between spans), the same contract as Report.
func (c *Coordinator) Probe() *obs.Probe { return c.probe }

// Supervisor returns node idx's supervisor, for mid-run observation
// and member redeployment. Only call with the fleet quiescent (between
// spans); during a span, a shard's OnEpoch observer may call it for
// that shard's stepped nodes only.
func (c *Coordinator) Supervisor(idx int) *Supervisor { return c.nodes[idx].sup }

// Elapsed returns the total virtual time the aligned fleet has
// stepped so far.
func (c *Coordinator) Elapsed() time.Duration { return c.con.Aligned() }

// StepFor advances every node's clock by d and returns once the whole
// fleet has reached the new barrier — a single free-running span, so
// each shard visits each of its nodes exactly once.
func (c *Coordinator) StepFor(d time.Duration) {
	if d <= 0 || c.stopped {
		return
	}
	// The span cannot fail: it moves forward and has no stepping.
	_ = c.con.Run(shard.Span{Until: c.con.Aligned() + d})
}

// Span runs one conductor span over the fleet (see shard.Span): cells
// listed by sp.Stepped advance epoch by epoch with sp.OnEpoch fired at
// each shard-local barrier, everything else free-runs to sp.Until. It
// is a no-op on a stopped coordinator.
func (c *Coordinator) Span(sp shard.Span) error {
	if c.stopped {
		return nil
	}
	if err := c.con.Run(sp); err != nil {
		return err
	}
	return c.LifecycleErr()
}

// Report aggregates the fleet at the current barrier, exactly as Run
// reports a finished fleet; Duration is the time stepped so far.
func (c *Coordinator) Report() *Report {
	results := make([]nodeResult, len(c.nodes))
	c.forEachNode(func(idx int) { c.nodes[idx].snapshot(&results[idx]) })
	rep := aggregate(c.Elapsed(), results)
	rep.Profile = c.probe.Profile()
	rep.Trace = c.probe.Trace()
	return rep
}

// StopAll stops every node's supervisor (running each Actuator's
// CleanUp). It is idempotent; nodes built before a setup error are
// stopped too.
func (c *Coordinator) StopAll() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.forEachNode(func(idx int) {
		if c.nodes[idx].sup != nil {
			c.nodes[idx].sup.StopAll()
		}
	})
}

// RunStepped simulates the fleet like Run but through a Coordinator in
// fleet-wide lockstep epochs of interval. observe, if non-nil, runs
// after every epoch with the fleet quiescent at the barrier; it may
// inspect any supervisor and redeploy members. A non-nil error from
// observe aborts the run and is returned. The final epoch is truncated
// so the total horizon is exactly cfg.Duration, which makes a stepped
// run's report directly comparable to — in fact, identical to — a
// Run of the same config.
func RunStepped(cfg Config, interval time.Duration, observe func(epoch int, c *Coordinator) error) (*Report, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("fleet: stepped interval = %v, must be positive", interval)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	defer c.StopAll()
	for epoch := 1; c.Elapsed() < cfg.Duration; epoch++ {
		c.StepFor(min(interval, cfg.Duration-c.Elapsed()))
		if err := c.LifecycleErr(); err != nil {
			return nil, err
		}
		if observe != nil {
			if err := observe(epoch, c); err != nil {
				return nil, err
			}
		}
	}
	return c.Report(), nil
}
