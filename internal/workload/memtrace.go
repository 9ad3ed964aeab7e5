package workload

import (
	"time"

	"sol/internal/stats"
)

// MemoryTrace generates per-region memory access rates for the
// SmartMemory experiments. Regions are 2 MB batches of 512 pages; the
// trace assigns each region an access rate that follows a Zipf
// popularity curve whose rank-to-region mapping rotates at phase
// shifts, modeling working-set churn.
type MemoryTrace interface {
	// Name identifies the trace.
	Name() string
	// Rates fills out[r] with the current accesses/second for region r.
	// len(out) must equal Regions().
	Rates(now time.Time, out []float64)
	// Regions returns the number of memory regions in the trace.
	Regions() int
}

// ZipfTrace is the standard MemoryTrace implementation.
type ZipfTrace struct {
	name      string
	regions   int
	totalRate float64
	weights   []float64 // zipf weight by rank; the family's, read-only
	rankOf    []int     // region -> rank
	// ShiftInterval rotates ShiftAmount regions' ranks; zero disables.
	shiftInterval time.Duration
	shiftAmount   int
	nextShift     time.Time
	started       bool
	rng           *stats.RNG

	// activeFn, when non-nil, scales the total rate over time (the
	// oscillating workload uses it to sleep).
	activeFn func(now time.Time) float64
}

// ZipfTraceConfig parameterizes NewZipfTrace.
type ZipfTraceConfig struct {
	Name          string
	Regions       int
	TotalRate     float64 // accesses/second across all regions
	Skew          float64 // Zipf exponent; higher = more concentrated
	ShiftInterval time.Duration
	ShiftAmount   int // regions rotated per shift
	Seed          uint64
}

// NewZipfTrace builds a trace from cfg.
func NewZipfTrace(cfg ZipfTraceConfig) *ZipfTrace {
	return NewTraceFamily(cfg).New(cfg.Seed)
}

// TraceFamily is the part of a ZipfTrace fixed by its configuration
// rather than its seed: the parameters and the Zipf rank-weight table.
// A fleet builds one family and draws every node's trace from it; the
// traces share the table, which nothing writes once NewTraceFamily has
// returned, so they may live on different goroutines.
type TraceFamily struct {
	proto ZipfTrace // every trace starts as a copy; rankOf and rng are its own
}

// NewTraceFamily computes the family of cfg. cfg.Seed is ignored: each
// trace brings its own to New.
func NewTraceFamily(cfg ZipfTraceConfig) *TraceFamily {
	if cfg.Regions <= 0 {
		panic("workload: ZipfTrace with no regions")
	}
	// No generator: only the weights are read, nothing is drawn.
	z := stats.NewZipf(nil, cfg.Regions, cfg.Skew)
	weights := make([]float64, cfg.Regions)
	for k := range weights {
		weights[k] = z.Weight(k)
	}
	return &TraceFamily{proto: ZipfTrace{
		name:          cfg.Name,
		regions:       cfg.Regions,
		totalRate:     cfg.TotalRate,
		weights:       weights,
		shiftInterval: cfg.ShiftInterval,
		shiftAmount:   cfg.ShiftAmount,
	}}
}

// New returns the family's trace for seed, which drives the initial
// rank placement and the shifts.
func (f *TraceFamily) New(seed uint64) *ZipfTrace {
	z := f.proto
	z.rng = stats.NewRNG(seed)
	// Traces once split a generator off here for a Zipf sampler of their
	// own; the draw stays so every seed keeps its placement and shifts.
	z.rng.Uint64()
	z.rankOf = z.rng.Perm(z.regions) // random initial rank placement
	return &z
}

// Name implements MemoryTrace.
func (z *ZipfTrace) Name() string { return z.name }

// Regions implements MemoryTrace.
func (z *ZipfTrace) Regions() int { return z.regions }

// Rates implements MemoryTrace.
func (z *ZipfTrace) Rates(now time.Time, out []float64) {
	if len(out) != z.regions {
		panic("workload: Rates output slice has wrong length")
	}
	if !z.started {
		z.started = true
		if z.shiftInterval > 0 {
			z.nextShift = now.Add(z.shiftInterval)
		}
	}
	for z.shiftInterval > 0 && !now.Before(z.nextShift) {
		z.shift()
		z.nextShift = z.nextShift.Add(z.shiftInterval)
	}
	scale := 1.0
	if z.activeFn != nil {
		scale = z.activeFn(now)
	}
	for r := 0; r < z.regions; r++ {
		out[r] = z.totalRate * scale * z.weights[z.rankOf[r]]
	}
}

// shift swaps ShiftAmount random regions' ranks with other random
// regions, churning part of the working set.
func (z *ZipfTrace) shift() {
	for i := 0; i < z.shiftAmount; i++ {
		a := z.rng.Intn(z.regions)
		b := z.rng.Intn(z.regions)
		z.rankOf[a], z.rankOf[b] = z.rankOf[b], z.rankOf[a]
	}
}

// Standard traces for the Figure 7 workloads. Region counts and rates
// are sized so the hot set covering 80% of accesses spans roughly a
// third to a half of memory, matching the local-memory reductions the
// paper reports.

// NewObjectStoreTrace returns a strongly skewed, slowly drifting trace
// (hot keys dominate; working set churns slowly).
func NewObjectStoreTrace(regions int, seed uint64) *ZipfTrace {
	return NewZipfTrace(ZipfTraceConfig{
		Name: "ObjectStore", Regions: regions, TotalRate: 150000,
		Skew: 0.9, ShiftInterval: 60 * time.Second, ShiftAmount: regions / 50,
		Seed: seed,
	})
}

// SQLTraces returns the family of OLTP-style traces: moderate skew
// (buffer pool) with periodic churn from table scans.
func SQLTraces(regions int) *TraceFamily {
	return NewTraceFamily(ZipfTraceConfig{
		Name: "SQL", Regions: regions, TotalRate: 140000,
		Skew: 0.7, ShiftInterval: 30 * time.Second, ShiftAmount: regions / 16,
	})
}

// NewSQLTrace returns one SQL trace; a fleet of them comes from one
// SQLTraces family.
func NewSQLTrace(regions int, seed uint64) *ZipfTrace {
	return SQLTraces(regions).New(seed)
}

// NewSpecJBBTrace returns a Java-heap trace: flatter popularity and
// frequent churn from allocation and garbage collection.
func NewSpecJBBTrace(regions int, seed uint64) *ZipfTrace {
	return NewZipfTrace(ZipfTraceConfig{
		Name: "SpecJBB", Regions: regions, TotalRate: 300000,
		Skew: 0.55, ShiftInterval: 20 * time.Second, ShiftAmount: regions / 10,
		Seed: seed,
	})
}

// NewOscillatingTrace returns the Figure 8 stress workload: SpecJBB
// running for runFor, then sleeping (memory nearly untouched) for
// sleepFor, repeatedly. Each wake rotates a large part of the working
// set, producing the frequent, rapid access-pattern shifts the paper
// designed the workload around.
func NewOscillatingTrace(regions int, runFor, sleepFor time.Duration, seed uint64) *ZipfTrace {
	z := NewZipfTrace(ZipfTraceConfig{
		Name: "SpecJBB-oscillating", Regions: regions, TotalRate: 300000,
		Skew: 0.55, ShiftInterval: runFor + sleepFor, ShiftAmount: regions / 4,
		Seed: seed,
	})
	period := runFor + sleepFor
	var start time.Time
	var haveStart bool
	z.activeFn = func(now time.Time) float64 {
		if !haveStart {
			start, haveStart = now, true
		}
		into := now.Sub(start) % period
		if into < runFor {
			return 1
		}
		return 0.002 // near-silent sleep
	}
	return z
}
