// Package faults provides the failure-condition injectors used by the
// SOL evaluation (§6): corrupted telemetry readings, broken models, and
// scheduling delays. Each injector plugs into an explicit seam — a
// sample corruptor hook on an agent's Model, the ModelDelay option on
// the SOL runtime — so experiments inject precisely the condition under
// study while every other code path stays production-identical.
//
// Node-lifecycle faults — a node that crashes, restarts or goes dark —
// are scheduled by a NodePlan over a fleet's virtual timeline; Crash,
// the permanent crash of a deterministic fraction of nodes, is the one
// stock plan.
package faults

import (
	"sync"
	"sync/atomic"
	"time"

	"sol/internal/stats"
)

// BadData corrupts a fraction of float64 telemetry readings with
// out-of-range values, modeling misconfigured drivers or semantics
// changes (§3.2 "Bad input data"). Corruptions alternate between
// negative garbage and values far above the physical maximum, both of
// which range validation must catch.
//
// Corrupt must be called from a single goroutine (or the injection
// seam's own serialization): the RNG stream is deliberately
// sequential so injections are deterministic. Injected, however, is
// safe to call concurrently — experiment harnesses poll it from the
// real-clock driver while the injector runs, so the counter is
// atomic.
type BadData struct {
	// Probability is the chance each reading is corrupted.
	Probability float64
	// Max is the physical upper bound of the reading; corrupt values
	// land well outside [0, Max].
	Max float64

	rng  *stats.RNG
	hits atomic.Uint64
}

// NewBadData returns an injector corrupting readings with probability p
// against physical maximum max.
func NewBadData(p, max float64, seed uint64) *BadData {
	return &BadData{Probability: p, Max: max, rng: stats.NewRNG(seed)}
}

// Corrupt maybe-corrupts v, reporting whether it did.
func (b *BadData) Corrupt(v float64) (float64, bool) {
	if !b.rng.Bool(b.Probability) {
		return v, false
	}
	b.hits.Add(1)
	if b.rng.Bool(0.5) {
		return -1 - b.rng.Float64()*b.Max, true
	}
	return b.Max * (2 + 8*b.rng.Float64()), true
}

// Injected returns how many readings were corrupted. Safe to call
// concurrently with Corrupt.
func (b *BadData) Injected() uint64 { return b.hits.Load() }

// Delay injects scheduling delays into the SOL model loop. Its
// ModelDelay method matches the core.Options.ModelDelay hook. Delays
// are armed by Trigger (e.g. from a workload phase-change callback) and
// consumed by the next scheduled model step, which models the agent
// being starved by higher-priority host work at that exact moment.
type Delay struct {
	mu      sync.Mutex
	pending time.Duration
	fired   uint64
}

// NewDelay returns an unarmed delay injector.
func NewDelay() *Delay { return &Delay{} }

// Trigger arms a one-shot delay of d for the next model step.
func (d *Delay) Trigger(dur time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if dur > d.pending {
		d.pending = dur
	}
}

// ModelDelay consumes and returns the armed delay (zero if unarmed).
// Pass this method as core.Options.ModelDelay.
func (d *Delay) ModelDelay(t time.Time) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.pending
	d.pending = 0
	if p > 0 {
		d.fired++
	}
	return p
}

// Fired returns how many delays were injected.
func (d *Delay) Fired() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fired
}

// PeriodicDelay injects a fixed delay into every model step whose
// intended time falls within [From, Until). It models sustained
// throttling windows.
type PeriodicDelay struct {
	From  time.Time
	Until time.Time
	D     time.Duration
}

// ModelDelay implements the core.Options.ModelDelay signature.
func (p *PeriodicDelay) ModelDelay(t time.Time) time.Duration {
	if !t.Before(p.From) && t.Before(p.Until) {
		return p.D
	}
	return 0
}

// ScanFault makes a fraction of memory access-bit scans fail with a
// driver error, for the SmartMemory data-validation experiments.
// Like BadData: Fault is single-goroutine (sequential RNG stream),
// Injected is safe to poll concurrently.
type ScanFault struct {
	Probability float64
	rng         *stats.RNG
	err         error
	hits        atomic.Uint64
}

// NewScanFault returns an injector failing scans with probability p.
func NewScanFault(p float64, err error, seed uint64) *ScanFault {
	return &ScanFault{Probability: p, rng: stats.NewRNG(seed), err: err}
}

// Fault implements the memsim scan-fault hook signature.
func (s *ScanFault) Fault(region int) error {
	if s.rng.Bool(s.Probability) {
		s.hits.Add(1)
		return s.err
	}
	return nil
}

// Injected returns how many scans were failed. Safe to call
// concurrently with Fault.
func (s *ScanFault) Injected() uint64 { return s.hits.Load() }
