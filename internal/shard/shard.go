// Package shard partitions a fleet-scale discrete-event simulation
// into S independently advancing shards. Each shard owns a contiguous
// block of cells (nodes), has its own lockstep barrier and worker
// allotment, and advances through simulated time without ever taking a
// fleet-wide lock; a lightweight Conductor aligns the shards only at
// the instants a caller actually needs the whole fleet quiescent —
// campaign wave conversions, gate judgements, the final report.
//
// The design follows the partitioned-execution insight of the related
// offloading work: keep work local to a partition, synchronize only at
// partition granularity. Concretely, a single fleet-wide barrier makes
// every node pay the observation cadence of the most closely watched
// node — at 10k nodes that sweep is what caps one-process fleet size.
// A Span instead distinguishes the cells that must advance epoch by
// epoch (a canary cohort under fine-grained observation) from the
// cells that may free-run straight to the next alignment point, so the
// steady-state fleet simulates at batch speed while the cohort is
// observed at actuation granularity.
//
// The conductor is generic: it schedules and synchronizes, and drives
// the caller's cells only through Config.Advance. Determinism is
// inherited from the cells — every cell's simulation is advanced by
// the same total durations in the same per-cell order regardless of
// shard count or worker width, so a deterministic per-cell simulation
// yields a deterministic fleet under any partitioning.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sol/internal/obs"
)

// ForEach runs fn(idx) for every idx in [0, n) on a pool of workers
// goroutines and waits for all to finish. The channel handoff and
// WaitGroup supply the happens-before edges that let lock-elided
// single-driver simulation state (virtual clocks, node substrates)
// migrate between worker goroutines across calls. workers <= 1 runs
// inline. This is the one scheduling primitive the fleet layers share:
// batch runs, shard builds, and within-shard pools all go through it.
func ForEach(n, workers int, fn func(idx int)) {
	if workers > n {
		// Never spawn more goroutines than jobs: per-epoch stepped
		// loops often have one cell against a multi-worker allotment,
		// and the pool setup would dwarf the work.
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				fn(idx)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Config describes a sharded simulation.
type Config struct {
	// Cells is the number of driveable cells (fleet nodes). Must be
	// >= 1.
	Cells int
	// Shards is the number of partitions; 0 means 1. Capped at Cells.
	Shards int
	// Workers is the total worker budget spread across the shards; 0
	// means GOMAXPROCS. Capped at Cells.
	Workers int
	// Advance advances one cell's simulation by d. It is called from
	// shard worker goroutines with exclusive ownership of the cell and
	// happens-before edges across calls, so cells built on lock-elided
	// single-driver clocks are safe. Must be non-nil.
	Advance func(cell int, d time.Duration)
	// Profile turns on the profile view of the conductor's probe
	// (internal/obs): per-shard wall time attributed into stepping,
	// free-running, align observers, and barrier wait. Diagnostic only
	// — profiling never changes what the simulation computes.
	Profile bool
	// Trace turns on the trace view of the same probe: per-shard rings
	// of span/epoch/lifecycle events stamped with sim-time, plus heap
	// telemetry. Same contract as Profile. Either flag creates the one
	// probe; with both off it is nil and every transition pays a single
	// nil check.
	Trace bool
}

func (c Config) validate() error {
	switch {
	case c.Cells < 1:
		return fmt.Errorf("shard: Cells = %d, must be >= 1", c.Cells)
	case c.Shards < 0:
		return fmt.Errorf("shard: Shards = %d, must be >= 0", c.Shards)
	case c.Workers < 0:
		return fmt.Errorf("shard: Workers = %d, must be >= 0", c.Workers)
	case c.Advance == nil:
		return fmt.Errorf("shard: no Advance function")
	}
	return nil
}

func (c Config) shards() int {
	s := c.Shards
	if s < 1 {
		s = 1
	}
	if s > c.Cells {
		s = c.Cells
	}
	return s
}

func (c Config) workers() int {
	w := c.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > c.Cells {
		w = c.Cells
	}
	return w
}

// Span describes one aligned stretch of simulated time: every cell
// advances from the conductor's aligned instant to Until, and the
// fleet is quiescent again when Run returns. Cells a shard reports in
// Stepped advance epoch by epoch (for mid-span observation); all other
// cells free-run straight to Until, since nothing observes them before
// the next alignment.
type Span struct {
	// Until is the absolute elapsed target of the span. A span to the
	// current aligned instant is a no-op.
	Until time.Duration
	// Interval is the epoch length for stepped cells. The final epoch
	// is truncated so the span lands exactly on Until. Required
	// (positive) when Stepped or OnEpoch is set.
	Interval time.Duration
	// Stepped returns the cells of shard s that must advance epoch by
	// epoch, or nil for none. The cells must belong to shard s. The
	// slice is read on the shard's goroutine and must not change during
	// the span.
	Stepped func(s int) []int
	// OnEpoch, if non-nil, runs after every epoch of shard s with that
	// shard's stepped cells quiescent at the epoch boundary: epoch is
	// 1-based within the span, at is the absolute elapsed time of the
	// boundary, and step is the epoch's (possibly truncated) length.
	// It runs on the shard's goroutine, concurrently with other
	// shards, and must touch shard-local state only.
	OnEpoch func(s, epoch int, at, step time.Duration)
}

// Conductor owns the shards of one simulation and aligns them at span
// boundaries. Between Run calls the whole fleet is quiescent at
// Aligned(); within a Run, shards advance independently on their own
// goroutines and worker allotments.
type Conductor struct {
	cfg     Config
	nShards int
	workers int
	bounds  []int // len nShards+1; shard s owns cells [bounds[s], bounds[s+1])
	// aligned is conductor-goroutine state: written only with the fleet
	// quiescent (between Runs, or at Run's closing barrier).
	aligned time.Duration
	probe   *obs.Probe // nil when Config.Profile and Config.Trace are both off
}

// New validates cfg and partitions its cells into contiguous shards of
// near-equal size (differing by at most one cell). No time passes.
func New(cfg Config) (*Conductor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := cfg.shards()
	c := &Conductor{cfg: cfg, nShards: s, workers: cfg.workers(), bounds: make([]int, s+1)}
	for i := 0; i <= s; i++ {
		c.bounds[i] = i * cfg.Cells / s
	}
	c.probe = obs.NewProbe(c.bounds, cfg.Profile, cfg.Trace)
	return c, nil
}

// Probe returns the conductor's instrumentation probe, nil when
// profiling and tracing are both off. Callers hang their own events
// (lifecycle transitions, campaign decisions) on it and snapshot its
// views between Run calls (fleet aligned); every probe method is
// nil-safe, so the pointer threads unconditionally.
func (c *Conductor) Probe() *obs.Probe { return c.probe }

// Shards returns the shard count.
func (c *Conductor) Shards() int { return c.nShards }

// Cells returns shard s's cell range [lo, hi).
func (c *Conductor) Cells(s int) (lo, hi int) { return c.bounds[s], c.bounds[s+1] }

// ShardOf returns the shard that owns cell.
func (c *Conductor) ShardOf(cell int) int {
	// Inverse of the bounds formula; verify against the (floor-divided)
	// boundaries since s*Cells/Shards truncates.
	s := cell * c.nShards / c.cfg.Cells
	for s+1 <= c.nShards && cell >= c.bounds[s+1] {
		s++
	}
	for s > 0 && cell < c.bounds[s] {
		s--
	}
	return s
}

// Aligned returns the elapsed simulated time every cell has reached —
// the conductor's current barrier.
func (c *Conductor) Aligned() time.Duration { return c.aligned }

// shardWorkers returns shard s's worker allotment: the total budget
// spread across shards, the first Workers%Shards shards taking one
// extra. With fewer workers than shards every shard runs inline on its
// own goroutine (the common fleet-scale case).
func (c *Conductor) shardWorkers(s int) int {
	if c.workers <= c.nShards {
		return 1
	}
	w := c.workers / c.nShards
	if s < c.workers%c.nShards {
		w++
	}
	return w
}

// Run executes one span: every shard advances its cells from the
// current aligned instant to sp.Until, in parallel with the other
// shards, and Run returns with the fleet quiescent at the new
// alignment. Within a shard, free cells advance in one call each
// (maximal locality) and stepped cells advance epoch by epoch with
// OnEpoch fired at every local barrier. Nothing global is taken
// between the span's start and its end — this is the "healthy
// steady-state epochs never take a fleet-wide lock" contract.
func (c *Conductor) Run(sp Span) error {
	switch {
	case sp.Until < c.aligned:
		return fmt.Errorf("shard: span until %v is behind the aligned fleet at %v", sp.Until, c.aligned)
	case (sp.Stepped != nil || sp.OnEpoch != nil) && sp.Interval <= 0:
		return fmt.Errorf("shard: stepped span interval = %v, must be positive", sp.Interval)
	case sp.Until == c.aligned:
		return nil
	}
	span := sp.Until - c.aligned
	from := c.aligned
	// The probe (a nil-safe no-op when off) hears each transition once:
	// the span's launch and barrier on this goroutine, each shard's
	// begin, phase ends and end on the shard's goroutine. Every phase
	// call takes the previous transition's token and returns the next.
	// It only observes the schedule, never changes it, so an
	// instrumented run computes byte-identical simulation output.
	c.probe.Launch()
	ForEach(c.nShards, min(c.workers, c.nShards), func(s int) {
		lo, hi := c.bounds[s], c.bounds[s+1]
		w := c.shardWorkers(s)
		var stepped []int
		if sp.Stepped != nil {
			stepped = sp.Stepped(s)
		}
		// Nothing stepped or observed: one visit per cell for the span.
		// Otherwise free-run the unobserved cells, then walk the stepped
		// ones through the span's epochs in the caller's order (cells are
		// independent, so the groups' order is unobservable). The setup
		// before Begin is untimed.
		pure := len(stepped) == 0 && sp.OnEpoch == nil
		var nFree int
		var freeRun func(i int)
		switch {
		case pure:
			nFree, freeRun = hi-lo, func(i int) { c.cfg.Advance(lo+i, span) }
		case len(stepped) < hi-lo:
			inStep := make(map[int]bool, len(stepped))
			for _, cell := range stepped {
				inStep[cell] = true
			}
			free := make([]int, 0, hi-lo-len(stepped))
			for cell := lo; cell < hi; cell++ {
				if !inStep[cell] {
					free = append(free, cell)
				}
			}
			nFree, freeRun = len(free), func(i int) { c.cfg.Advance(free[i], span) }
		}
		t := c.probe.Begin(s, int64(from))
		if freeRun != nil {
			ForEach(nFree, w, freeRun)
			t = c.probe.Free(s, nFree, t)
		}
		cur := time.Duration(0)
		for epoch := 1; !pure && cur < span; epoch++ {
			step := sp.Interval
			if rem := span - cur; step > rem {
				step = rem
			}
			ForEach(len(stepped), w, func(i int) { c.cfg.Advance(stepped[i], step) })
			cur += step
			t = c.probe.Step(s, len(stepped), int64(from+cur), epoch, t)
			if sp.OnEpoch != nil {
				sp.OnEpoch(s, epoch, from+cur, step)
				t = c.probe.Align(s, t)
			}
		}
		c.probe.End(s, int64(sp.Until), t)
	})
	c.aligned = sp.Until
	c.probe.Barrier(int64(sp.Until))
	return nil
}

// Epochs returns how many epochs of interval a drive from 0 to horizon
// contains under the span truncation rule (the final epoch absorbs the
// remainder), and EpochTime the absolute elapsed time of epoch e's
// barrier. Together they define the shared epoch grid the conductor
// and its callers (campaign gates, traces) agree on.
func Epochs(horizon, interval time.Duration) int {
	if horizon <= 0 || interval <= 0 {
		return 0
	}
	n := int(horizon / interval)
	if horizon%interval != 0 {
		n++
	}
	return n
}

// EpochTime returns the absolute elapsed time of epoch e's barrier on
// the (horizon, interval) grid: e*interval, truncated at the horizon.
func EpochTime(e int, horizon, interval time.Duration) time.Duration {
	t := time.Duration(e) * interval
	if t > horizon {
		t = horizon
	}
	return t
}
