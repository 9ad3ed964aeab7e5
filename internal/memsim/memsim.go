// Package memsim simulates the managed two-tier memory system that the
// SmartMemory agent targets (§5.3 of the SOL paper): a fast first tier
// (DRAM) in front of a slower second tier (persistent or disaggregated
// memory), with page-access-bit scanning as the only visibility into
// which memory is hot.
//
// Memory is divided into regions ("batches") of 512 pages (2 MB).
// A workload trace assigns each region an access rate; every base tick
// (300 ms, the fastest scan period) the simulator integrates accesses,
// setting page access bits. Because an access bit is one bit per page,
// observations saturate: scanning a region less often loses resolution
// once most of its pages get touched between scans — precisely the
// effect the Thompson-sampling scan-rate controller trades off against
// the TLB-flush cost of frequent scanning.
//
// The simulator accounts three things the evaluation needs: access-bit
// resets (each cleared bit is a TLB flush), local vs remote accesses by
// tier, and per-region ground truth (what maximum-rate scanning would
// have observed) for the agent's audit sampling.
package memsim

import (
	"fmt"
	"math"
	"time"

	"sol/internal/clock"
	"sol/internal/stats"
	"sol/internal/workload"
)

// Config describes the memory system.
type Config struct {
	// Regions is the number of 2 MB batches.
	Regions int
	// PagesPerRegion is pages per batch (512 for 4 KB pages in 2 MB).
	PagesPerRegion int
	// Tier1Capacity is the maximum number of regions the first tier can
	// hold. Zero means unconstrained (capacity = Regions).
	Tier1Capacity int
	// BaseTick is the integration step and the fastest scan period
	// (the paper uses 300 ms).
	BaseTick time.Duration
	// Seed drives the binomial sampling noise on scan results. Real
	// access-bit counts are binomial draws, not expectations; the noise
	// is what makes saturated regions genuinely indistinguishable.
	Seed uint64
}

// DefaultConfig returns the experiments' configuration.
func DefaultConfig(regions int) Config {
	return Config{
		Regions:        regions,
		PagesPerRegion: 512,
		BaseTick:       300 * time.Millisecond,
		Seed:           uint64(regions) + 1,
	}
}

func (c Config) validate() error {
	switch {
	case c.Regions <= 0:
		return fmt.Errorf("memsim: Regions = %d, must be positive", c.Regions)
	case c.PagesPerRegion <= 0:
		return fmt.Errorf("memsim: PagesPerRegion = %d, must be positive", c.PagesPerRegion)
	case c.BaseTick <= 0:
		return fmt.Errorf("memsim: BaseTick = %v, must be positive", c.BaseTick)
	case c.Tier1Capacity < 0 || c.Tier1Capacity > c.Regions:
		return fmt.Errorf("memsim: Tier1Capacity = %d out of [0,%d]", c.Tier1Capacity, c.Regions)
	}
	return nil
}

// Memory is the simulated two-tier memory.
type Memory struct {
	cfg   Config
	clk   clock.Clock
	trace workload.MemoryTrace
	rates []float64

	inTier1 []bool
	tier1N  int
	// bitsSet is the expected fraction of pages in each region whose
	// access bit is currently set (continuous approximation of the
	// random page-touch process).
	bitsSet []float64
	// lastAccess is when each region last saw meaningful traffic, in
	// nanoseconds after origin; 0 is never (the first tick is a whole
	// BaseTick after origin).
	lastAccess []uint64
	origin     time.Time
	// occA and occDistinct memoize tick's occupancy term per region:
	// the bits of the last a = rate·dt and the distinct-page count it
	// gave. A region's rate moves only at a trace shift, so most ticks
	// skip the Pow.
	occA        []uint64
	occDistinct []float64
	// maxObserved accumulates, per region, the distinct-page touches a
	// maximum-rate scanner would have counted (ground truth for audit).
	maxObserved []float64
	// accesses accumulates true access counts per region.
	accesses []float64
	// remoteByRegion accumulates accesses served from tier 2 per
	// region (observable: they traverse the far-memory driver).
	remoteByRegion []float64

	rng           stats.RNG
	local, remote float64
	resets        float64
	scans         uint64
	migrations    uint64
	ticks         uint64
	ticker        clock.Timer
	started       bool

	// scanFault, when non-nil, lets fault injection make Scan return
	// driver errors for chosen regions.
	scanFault func(region int) error
}

// New creates a Memory on clk fed by trace. All regions start in
// tier 1 (everything local), matching a freshly provisioned VM.
func New(clk clock.Clock, cfg Config, trace workload.MemoryTrace) (*Memory, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if trace.Regions() != cfg.Regions {
		return nil, fmt.Errorf("memsim: trace has %d regions, config %d", trace.Regions(), cfg.Regions)
	}
	if cfg.Tier1Capacity == 0 {
		cfg.Tier1Capacity = cfg.Regions
	}
	// The per-region arrays share two backing slabs, one per element
	// type, both pointer-free; at 128 regions they fill the 6144- and
	// 2048-byte size classes exactly.
	n := cfg.Regions
	slab := make([]float64, 6*n)
	words := make([]uint64, 2*n)
	m := &Memory{
		cfg:            cfg,
		clk:            clk,
		rng:            *stats.NewRNG(cfg.Seed),
		trace:          trace,
		rates:          slab[0*n : 1*n : 1*n],
		inTier1:        make([]bool, n),
		tier1N:         n,
		bitsSet:        slab[1*n : 2*n : 2*n],
		lastAccess:     words[0*n : 1*n : 1*n],
		origin:         clk.Now(),
		occA:           words[1*n : 2*n : 2*n],
		occDistinct:    slab[5*n : 6*n : 6*n],
		maxObserved:    slab[2*n : 3*n : 3*n],
		accesses:       slab[3*n : 4*n : 4*n],
		remoteByRegion: slab[4*n : 5*n : 5*n],
	}
	for r := range m.inTier1 {
		m.inTier1[r] = true
	}
	return m, nil
}

// MustNew is New but panics on error.
func MustNew(clk clock.Clock, cfg Config, trace workload.MemoryTrace) *Memory {
	m, err := New(clk, cfg, trace)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// Start begins the base-tick integration loop.
func (m *Memory) Start() {
	if m.started {
		panic("memsim: Start called twice")
	}
	m.started = true
	m.clk.Arm(&m.ticker, (*memTicker)(m), m.cfg.BaseTick, m.cfg.BaseTick)
}

// memTicker is the Memory as its ticker's handler: a pointer
// conversion, so arming allocates no callback.
type memTicker Memory

func (t *memTicker) Fire(now int64) { (*Memory)(t).tick(now) }

// Stop halts integration.
func (m *Memory) Stop() {
	m.ticker.Stop()
	m.started = false
}

func (m *Memory) tick(nowNS int64) {
	now := m.clk.At(nowNS)
	dt := m.cfg.BaseTick.Seconds()
	m.trace.Rates(now, m.rates)
	p := float64(m.cfg.PagesPerRegion)
	sinceOrigin := uint64(now.Sub(m.origin))
	for r, rate := range m.rates {
		a := rate * dt
		if a <= 0 {
			continue
		}
		m.accesses[r] += a
		if m.inTier1[r] {
			m.local += a
		} else {
			m.remote += a
			m.remoteByRegion[r] += a
		}
		if a >= 0.5 {
			m.lastAccess[r] = sinceOrigin
		}
		// Distinct pages touched by a accesses over p pages (expected
		// occupancy of a random-allocation process). a > 0 here, so its
		// bits never match a fresh region's zero key.
		if key := math.Float64bits(a); key != m.occA[r] {
			m.occA[r] = key
			m.occDistinct[r] = p * (1 - math.Pow(1-1/p, a))
		}
		distinct := m.occDistinct[r]
		m.maxObserved[r] += distinct
		// Union the new touches into the standing access bits.
		m.bitsSet[r] += (1 - m.bitsSet[r]) * (distinct / p)
	}
	m.ticks++
}

// --- Scanning (what the agent drives) ---

// ScanResult is one region scan: the number of access bits found set
// (and cleared).
type ScanResult struct {
	Region   int
	SetPages int
}

// Scan reads and clears region r's access bits, returning how many were
// set. Each cleared bit costs a TLB flush, accounted in Resets.
// Injected driver faults surface as errors, exactly like the real
// scanning driver's error codes (§5.3 "Validating data").
func (m *Memory) Scan(r int) (ScanResult, error) {
	if r < 0 || r >= m.cfg.Regions {
		return ScanResult{}, fmt.Errorf("memsim: scan of region %d out of range", r)
	}
	if m.scanFault != nil {
		if err := m.scanFault(r); err != nil {
			return ScanResult{}, err
		}
	}
	p := float64(m.cfg.PagesPerRegion)
	f := m.bitsSet[r]
	// The true set-bit count is a binomial draw over the pages, not the
	// expectation; approximate with a clamped Gaussian. The noise is
	// what makes two nearly saturated regions genuinely unrankable.
	mean := f * p
	std := math.Sqrt(p * f * (1 - f))
	set := int(mean + std*m.rng.NormFloat64() + 0.5)
	if set < 0 {
		set = 0
	}
	if set > m.cfg.PagesPerRegion {
		set = m.cfg.PagesPerRegion
	}
	m.resets += float64(set)
	m.bitsSet[r] = 0
	m.scans++
	return ScanResult{Region: r, SetPages: set}, nil
}

// SetScanFault installs (or clears, with nil) a driver-fault hook.
func (m *Memory) SetScanFault(f func(region int) error) { m.scanFault = f }

// --- Placement (what the actuator drives) ---

// SetTier places region r in tier 1 (local) or tier 2 (remote). Moving
// into a full tier 1 returns an error; callers migrate hottest-first
// and stop when full, as the paper's mitigation does.
func (m *Memory) SetTier(r int, tier1 bool) error {
	if r < 0 || r >= m.cfg.Regions {
		return fmt.Errorf("memsim: region %d out of range", r)
	}
	if m.inTier1[r] == tier1 {
		return nil
	}
	if tier1 && m.tier1N >= m.cfg.Tier1Capacity {
		return fmt.Errorf("memsim: tier 1 full (%d regions)", m.tier1N)
	}
	m.inTier1[r] = tier1
	if tier1 {
		m.tier1N++
	} else {
		m.tier1N--
	}
	m.migrations++
	return nil
}

// InTier1 reports region r's placement.
func (m *Memory) InTier1(r int) bool { return m.inTier1[r] }

// Tier1Regions returns the number of regions currently in tier 1.
func (m *Memory) Tier1Regions() int { return m.tier1N }

// --- Accounting (what the evaluation reads) ---

// Counters is a cumulative snapshot; difference two snapshots for
// windowed rates.
type Counters struct {
	Local      float64 // accesses served from tier 1
	Remote     float64 // accesses served from tier 2
	Resets     float64 // access bits cleared (TLB flushes)
	Scans      uint64  // region scans performed
	Migrations uint64  // tier changes
	At         time.Time
}

// Snapshot returns the cumulative counters.
func (m *Memory) Snapshot() Counters {
	return Counters{
		Local: m.local, Remote: m.remote,
		Resets: m.resets, Scans: m.scans, Migrations: m.migrations,
		At: m.clk.Now(),
	}
}

// RemoteFraction returns the fraction of accesses served remotely
// between prev and now; 0 if there were no accesses.
func (c Counters) RemoteFraction(prev Counters) float64 {
	l := c.Local - prev.Local
	r := c.Remote - prev.Remote
	if l+r <= 0 {
		return 0
	}
	return r / (l + r)
}

// LastAccess returns when region r last saw traffic (zero time if
// never).
func (m *Memory) LastAccess(r int) time.Time {
	if m.lastAccess[r] == 0 {
		return time.Time{}
	}
	return m.origin.Add(time.Duration(m.lastAccess[r]))
}

// MaxRateObserved returns the cumulative distinct-page touches that
// maximum-rate scanning would have counted for region r. The agent may
// consult this only for regions it actually audits at the maximum rate;
// the experiments enforce that discipline.
func (m *Memory) MaxRateObserved(r int) float64 { return m.maxObserved[r] }

// TrueAccesses returns the cumulative true access count for region r
// (simulation-side ground truth; used by the evaluation, not agents).
func (m *Memory) TrueAccesses(r int) float64 { return m.accesses[r] }

// RemoteAccesses returns the cumulative access count for region r while
// it has been in tier 2. Unlike first-tier accesses, second-tier
// accesses traverse the far-memory driver, so per-region counts are
// observable by agents — this is the "existing hardware counters"
// visibility §5.3 describes the actuator using.
func (m *Memory) RemoteAccesses(r int) float64 { return m.remoteByRegion[r] }

// Regions returns the number of regions.
func (m *Memory) Regions() int { return m.cfg.Regions }

// PagesPerRegion returns pages per region.
func (m *Memory) PagesPerRegion() int { return m.cfg.PagesPerRegion }

// Ticks returns completed base ticks.
func (m *Memory) Ticks() uint64 { return m.ticks }
