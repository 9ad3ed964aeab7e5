// Package workload implements the customer workloads the SOL paper
// evaluates against. Each workload is a generator that, once per
// simulation tick, consumes the CPU resources it is granted and reports
// how much it used, how much demand went unmet, and the
// microarchitectural character (IPC, stall fraction) of its execution —
// everything the node simulator needs to synthesize the hardware
// counters the agents observe.
//
// CPU workloads: Synthetic (periodic compute batches then idle, §6.2),
// ObjectStore (high-load key-value serving, P99 latency), DiskSpeed
// (disk-bound, gains nothing from overclocking), ImageDNN and Moses
// (TailBench-style latency-critical workloads for SmartHarvest, §6.3),
// and Elastic (a best-effort batch VM that soaks up harvested cores).
//
// Memory traces (for SmartMemory, §6.4): Zipf-skewed region access
// streams with phase shifts for ObjectStore, SQL OLTP, and SpecJBB,
// plus the oscillating SpecJBB/sleep workload of Figure 8.
package workload

import "sol/internal/clock"

// Step is one node tick as a workload sees it: the interval
// [Now, Now+Len) in nanoseconds on Clock's timebase, Len lasting Sec
// seconds. The node fills it once and moves Now each tick, so a
// workload's per-tick path is integer and float arithmetic only; a
// hook that hands out a time.Time (OnSurge, OnPhase) builds it with
// Clock.At, which gives the node clock's own value for that instant.
type Step struct {
	Clock clock.Clock
	Now   int64
	Len   int64
	Sec   float64
}

// Resources is what the node granted a VM for the current tick.
type Resources struct {
	// Cores is the number of physical cores available.
	Cores float64
	// FreqGHz is the operating frequency of those cores.
	FreqGHz float64
}

// Usage is what the workload did with its resources during one tick.
type Usage struct {
	// Util is the CPU actually consumed, in core-equivalents
	// (0 <= Util <= Resources.Cores).
	Util float64
	// Unmet is demand that could not run for lack of cores, in
	// core-equivalents. The hypervisor accumulates it as vCPU wait.
	Unmet float64
	// IPC is instructions retired per productive (unhalted, unstalled)
	// cycle during the tick.
	IPC float64
	// StallFrac is the fraction of unhalted cycles that were stalled
	// (e.g. on memory or IO).
	StallFrac float64
}

// CPUWorkload is a workload driven by node ticks.
type CPUWorkload interface {
	// Name identifies the workload in reports.
	Name() string
	// Tick advances the workload over s given res, returning its usage.
	Tick(s Step, res Resources) Usage
}

// capacity computes core·GHz·seconds of compute capacity in one tick.
func capacity(res Resources, sec float64) float64 {
	return res.Cores * res.FreqGHz * sec
}
