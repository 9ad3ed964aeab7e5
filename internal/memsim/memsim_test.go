package memsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/stats"
	"sol/internal/workload"
)

var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// flatTrace gives every region the same constant rate.
type flatTrace struct {
	regions int
	rate    float64
}

func (f *flatTrace) Name() string { return "flat" }
func (f *flatTrace) Regions() int { return f.regions }
func (f *flatTrace) Rates(now time.Time, out []float64) {
	for i := range out {
		out[i] = f.rate
	}
}

// twoTrace gives region 0 a hot rate and everything else a cold rate.
type twoTrace struct {
	regions   int
	hot, cold float64
}

func (t *twoTrace) Name() string { return "two" }
func (t *twoTrace) Regions() int { return t.regions }
func (t *twoTrace) Rates(now time.Time, out []float64) {
	out[0] = t.hot
	for i := 1; i < len(out); i++ {
		out[i] = t.cold
	}
}

func newMem(t *testing.T, tr workload.MemoryTrace) (*clock.Virtual, *Memory) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	m, err := New(clk, DefaultConfig(tr.Regions()), tr)
	if err != nil {
		t.Fatal(err)
	}
	return clk, m
}

func TestConfigValidation(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	tr := &flatTrace{regions: 4, rate: 1}
	bad := []Config{
		{Regions: 0, PagesPerRegion: 512, BaseTick: time.Second},
		{Regions: 4, PagesPerRegion: 0, BaseTick: time.Second},
		{Regions: 4, PagesPerRegion: 512, BaseTick: 0},
		{Regions: 4, PagesPerRegion: 512, BaseTick: time.Second, Tier1Capacity: 9},
	}
	for i, cfg := range bad {
		if _, err := New(clk, cfg, tr); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if _, err := New(clk, DefaultConfig(8), tr); err == nil {
		t.Fatal("region-count mismatch with trace accepted")
	}
}

func TestAllLocalInitially(t *testing.T) {
	clk, m := newMem(t, &flatTrace{regions: 8, rate: 100})
	m.Start()
	clk.RunFor(3 * time.Second)
	s := m.Snapshot()
	if s.Remote != 0 || s.Local == 0 {
		t.Fatalf("fresh memory not all-local: %+v", s)
	}
	if m.Tier1Regions() != 8 {
		t.Fatalf("Tier1Regions = %d, want 8", m.Tier1Regions())
	}
}

func TestTierAccounting(t *testing.T) {
	clk, m := newMem(t, &flatTrace{regions: 4, rate: 100})
	for r := 0; r < 2; r++ {
		if err := m.SetTier(r, false); err != nil {
			t.Fatal(err)
		}
	}
	m.Start()
	clk.RunFor(3 * time.Second)
	s := m.Snapshot()
	if math.Abs(s.Remote-s.Local) > 1e-6 {
		t.Fatalf("half-remote placement: local=%v remote=%v, want equal", s.Local, s.Remote)
	}
	if rf := s.RemoteFraction(Counters{}); math.Abs(rf-0.5) > 1e-9 {
		t.Fatalf("RemoteFraction = %v, want 0.5", rf)
	}
}

func TestRemoteFractionEmptyWindow(t *testing.T) {
	var c Counters
	if c.RemoteFraction(c) != 0 {
		t.Fatal("empty window remote fraction != 0")
	}
}

func TestScanClearsBitsAndCountsResets(t *testing.T) {
	clk, m := newMem(t, &flatTrace{regions: 2, rate: 10000}) // hot: saturates
	m.Start()
	clk.RunFor(time.Second)
	res, err := m.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SetPages < 500 { // nearly all 512 pages touched
		t.Fatalf("hot region scan found %d set pages, want ~512", res.SetPages)
	}
	// Immediately rescanning finds nothing: bits were cleared.
	res2, _ := m.Scan(0)
	if res2.SetPages != 0 {
		t.Fatalf("second scan found %d pages, want 0", res2.SetPages)
	}
	s := m.Snapshot()
	if s.Resets != float64(res.SetPages) {
		t.Fatalf("Resets = %v, want %v", s.Resets, res.SetPages)
	}
	if s.Scans != 2 {
		t.Fatalf("Scans = %d, want 2", s.Scans)
	}
}

func TestScanSaturation(t *testing.T) {
	// A warm region: slow scanning must observe fewer distinct touches
	// than fast scanning over the same wall time — the resolution-loss
	// effect the bandit exploits.
	rate := 200.0 // touches ~60 pages per 300ms tick
	run := func(scanEvery int) float64 {
		clk, m := newMem(t, &flatTrace{regions: 1, rate: rate})
		m.Start()
		observed := 0.0
		for i := 1; i <= 64; i++ {
			clk.RunFor(300 * time.Millisecond)
			if i%scanEvery == 0 {
				res, _ := m.Scan(0)
				observed += float64(res.SetPages)
			}
		}
		return observed
	}
	fast, slow := run(1), run(32)
	if slow >= fast*0.8 {
		t.Fatalf("slow scanning observed %v vs fast %v; saturation missing", slow, fast)
	}
}

func TestColdRegionScanCheap(t *testing.T) {
	// A cold region accumulates almost no set bits, so slow scanning
	// loses nothing and resets stay tiny either way.
	clk, m := newMem(t, &flatTrace{regions: 1, rate: 0.5})
	m.Start()
	clk.RunFor(9600 * time.Millisecond)
	res, _ := m.Scan(0)
	if res.SetPages > 20 {
		t.Fatalf("cold region had %d set pages after 9.6s, want few", res.SetPages)
	}
}

func TestScanOutOfRange(t *testing.T) {
	_, m := newMem(t, &flatTrace{regions: 2, rate: 1})
	if _, err := m.Scan(-1); err == nil {
		t.Fatal("negative region accepted")
	}
	if _, err := m.Scan(2); err == nil {
		t.Fatal("out-of-range region accepted")
	}
}

func TestScanFaultInjection(t *testing.T) {
	_, m := newMem(t, &flatTrace{regions: 2, rate: 1})
	want := errors.New("driver error")
	m.SetScanFault(func(r int) error {
		if r == 1 {
			return want
		}
		return nil
	})
	if _, err := m.Scan(0); err != nil {
		t.Fatalf("unexpected fault on region 0: %v", err)
	}
	if _, err := m.Scan(1); !errors.Is(err, want) {
		t.Fatalf("Scan(1) error = %v, want injected fault", err)
	}
	m.SetScanFault(nil)
	if _, err := m.Scan(1); err != nil {
		t.Fatal("fault persisted after clearing")
	}
}

func TestTier1CapacityEnforced(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	cfg := DefaultConfig(4)
	cfg.Tier1Capacity = 2
	tr := &flatTrace{regions: 4, rate: 1}
	m, err := New(clk, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// All 4 start in tier1 — capacity applies to *moves into* tier1.
	for r := 0; r < 3; r++ {
		if err := m.SetTier(r, false); err != nil {
			t.Fatal(err)
		}
	}
	if m.Tier1Regions() != 1 {
		t.Fatalf("Tier1Regions = %d", m.Tier1Regions())
	}
	if err := m.SetTier(0, true); err != nil {
		t.Fatal(err)
	}
	if err := m.SetTier(1, true); err == nil {
		t.Fatal("move into full tier 1 accepted")
	}
}

func TestSetTierIdempotentNoMigration(t *testing.T) {
	_, m := newMem(t, &flatTrace{regions: 2, rate: 1})
	if err := m.SetTier(0, true); err != nil { // already tier1
		t.Fatal(err)
	}
	if m.Snapshot().Migrations != 0 {
		t.Fatal("no-op SetTier counted as migration")
	}
	m.SetTier(0, false)
	if m.Snapshot().Migrations != 1 {
		t.Fatal("migration not counted")
	}
	if err := m.SetTier(9, true); err == nil {
		t.Fatal("out-of-range region accepted")
	}
}

// TestLastAccessTracking: a region reads the zero time until its first
// meaningful traffic and the exact time of its last hot tick after, on
// a Memory whose origin is neither the Unix epoch nor the clock's.
func TestLastAccessTracking(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	clk.RunFor(1234567 * time.Microsecond)
	tr := &twoTrace{regions: 4, hot: 0, cold: 0}
	m := MustNew(clk, DefaultConfig(4), tr)
	created := clk.Now()
	m.Start()
	clk.RunFor(2 * time.Second)
	for r := 0; r < 4; r++ {
		if last := m.LastAccess(r); last != (time.Time{}) {
			t.Fatalf("untouched region %d has last-access time %v", r, last)
		}
	}
	tr.hot = 1000
	clk.RunFor(2 * time.Second)
	tick := m.Config().BaseTick
	lastTick := created.Add(time.Duration(m.Ticks()) * tick)
	if last := m.LastAccess(0); last != lastTick {
		t.Fatalf("hot region last accessed %v, want the last tick %v", last, lastTick)
	}
	tr.hot = 1 // 0.3 accesses a tick: below the half-access floor
	clk.RunFor(2 * time.Second)
	if last := m.LastAccess(0); last != lastTick {
		t.Fatalf("cooled region last accessed %v, want it held at %v", last, lastTick)
	}
	if !m.LastAccess(1).IsZero() {
		t.Fatal("untouched region has a last-access time")
	}
}

// stepTrace redraws every region's rate every `every` calls: silent,
// below the half-access floor, warm, and saturating regions, each held
// long enough for the occupancy memo to hit and changed often enough
// for it to miss — a third of the changes by a single ulp, since the
// memo's key is every bit of a.
type stepTrace struct {
	every, calls int
	rng          *stats.RNG
	cur          []float64
}

func newStepTrace(regions, every int, seed uint64) *stepTrace {
	return &stepTrace{every: every, rng: stats.NewRNG(seed), cur: make([]float64, regions)}
}

func (s *stepTrace) Name() string { return "step" }
func (s *stepTrace) Regions() int { return len(s.cur) }
func (s *stepTrace) Rates(now time.Time, out []float64) {
	if s.calls%s.every == 0 {
		levels := []float64{0, 0.9, 37.5, 1200, 1200, 90000}
		for r := range s.cur {
			if s.calls > 0 && s.rng.Bool(1.0/3) {
				s.cur[r] = math.Nextafter(s.cur[r], math.Inf(1))
			} else {
				s.cur[r] = levels[s.rng.Intn(len(levels))] * (1 + s.rng.Float64())
			}
		}
	}
	s.calls++
	copy(out, s.cur)
}

// TestTickMatchesDirectOccupancy holds the memoized tick to the direct
// p·(1 − (1−1/p)^a) formula, evaluated per region per tick as tick did
// before the memo, over 600 ticks of a trace that steps every 7 ticks
// and of an activeFn-scaled oscillating trace: per-region and total
// accounting bit-equal, and every scan equal to that of a twin Memory
// whose memo is wiped before each tick.
func TestTickMatchesDirectOccupancy(t *testing.T) {
	const regions = 64
	traces := map[string]func() workload.MemoryTrace{
		"step": func() workload.MemoryTrace {
			return newStepTrace(regions, 7, 11)
		},
		"oscillating": func() workload.MemoryTrace {
			return workload.NewOscillatingTrace(regions, 4*time.Second, 3*time.Second, 5)
		},
	}
	for name, mk := range traces {
		clk, m := newMem(t, mk())
		twinClk, twin := newMem(t, mk())
		refTrace := mk()
		for r := 0; r < regions; r += 3 {
			for _, mem := range []*Memory{m, twin} {
				if err := mem.SetTier(r, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.Start()
		twin.Start()

		p := float64(m.PagesPerRegion())
		dt := m.Config().BaseTick.Seconds()
		rates := make([]float64, regions)
		accesses, maxObserved := make([]float64, regions), make([]float64, regions)
		remoteBy, bitsSet := make([]float64, regions), make([]float64, regions)
		local, remote := 0.0, 0.0
		for tick := 0; tick < 600; tick++ {
			for r := range twin.occA {
				twin.occA[r] = 0
			}
			clk.RunFor(m.Config().BaseTick)
			twinClk.RunFor(m.Config().BaseTick)

			refTrace.Rates(clk.Now(), rates)
			for r, rate := range rates {
				a := rate * dt
				if a <= 0 {
					continue
				}
				accesses[r] += a
				if m.InTier1(r) {
					local += a
				} else {
					remote += a
					remoteBy[r] += a
				}
				distinct := p * (1 - math.Pow(1-1/p, a))
				maxObserved[r] += distinct
				bitsSet[r] += (1 - bitsSet[r]) * (distinct / p)
			}
			for r := 0; r < regions; r++ {
				if !sameBits(m.TrueAccesses(r), accesses[r]) || !sameBits(m.MaxRateObserved(r), maxObserved[r]) ||
					!sameBits(m.RemoteAccesses(r), remoteBy[r]) || !sameBits(m.bitsSet[r], bitsSet[r]) {
					t.Fatalf("%s tick %d region %d: accesses %v/%v maxObserved %v/%v remote %v/%v bitsSet %v/%v (memoized/direct)",
						name, tick, r, m.TrueAccesses(r), accesses[r], m.MaxRateObserved(r), maxObserved[r],
						m.RemoteAccesses(r), remoteBy[r], m.bitsSet[r], bitsSet[r])
				}
			}
			// Scan a moving window, so regions are read at many ages.
			for r := tick % 5; r < regions; r += 5 {
				got, err := m.Scan(r)
				want, twinErr := twin.Scan(r)
				if err != nil || twinErr != nil || got != want {
					t.Fatalf("%s tick %d: scan %+v (%v), twin %+v (%v)", name, tick, got, err, want, twinErr)
				}
				bitsSet[r] = 0
			}
			if got, want := m.Snapshot(), twin.Snapshot(); got != want || !sameBits(got.Local, local) || !sameBits(got.Remote, remote) {
				t.Fatalf("%s tick %d: snapshot %+v, twin %+v, direct local %v remote %v", name, tick, got, want, local, remote)
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestMaxRateObservedGroundTruth(t *testing.T) {
	clk, m := newMem(t, &twoTrace{regions: 2, hot: 5000, cold: 10})
	m.Start()
	clk.RunFor(10 * time.Second)
	if m.MaxRateObserved(0) <= m.MaxRateObserved(1) {
		t.Fatal("ground truth does not rank hot above cold")
	}
	if m.TrueAccesses(0) <= m.TrueAccesses(1) {
		t.Fatal("true access counts wrong")
	}
	// Ground-truth observation is capped by saturation: over 10s the
	// hot region can show at most pages·ticks distinct touches.
	maxPossible := float64(m.PagesPerRegion()) * float64(m.Ticks())
	if m.MaxRateObserved(0) > maxPossible {
		t.Fatalf("ground truth %v exceeds physical cap %v", m.MaxRateObserved(0), maxPossible)
	}
}

func TestStopHaltsTicks(t *testing.T) {
	clk, m := newMem(t, &flatTrace{regions: 2, rate: 1})
	m.Start()
	clk.RunFor(time.Second)
	m.Stop()
	ticks := m.Ticks()
	clk.RunFor(time.Second)
	if m.Ticks() != ticks {
		t.Fatal("memory ticked after Stop")
	}
}

func TestStartTwicePanics(t *testing.T) {
	_, m := newMem(t, &flatTrace{regions: 2, rate: 1})
	m.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Start()
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNew(clock.NewVirtual(epoch), Config{}, &flatTrace{regions: 1, rate: 1})
}

func TestAccessorBasics(t *testing.T) {
	_, m := newMem(t, &flatTrace{regions: 3, rate: 1})
	if m.Regions() != 3 || m.PagesPerRegion() != 512 {
		t.Fatal("accessors wrong")
	}
	if m.Config().BaseTick != 300*time.Millisecond {
		t.Fatal("config accessor wrong")
	}
	if !m.InTier1(0) {
		t.Fatal("region 0 should start in tier 1")
	}
}

// TestNewAllocs pins a Memory at four heap objects — the struct (which
// holds its generator by value), the tier array, and the two slabs the
// per-region float64 and uint64 arrays share — and checks the arrays, though neighbours in
// a slab, cannot grow into each other.
func TestNewAllocs(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	tr := &flatTrace{regions: 128, rate: 1000}
	var m *Memory
	if n := testing.AllocsPerRun(50, func() { m = MustNew(clk, DefaultConfig(128), tr) }); n != 4 {
		t.Fatalf("New allocates %.0f objects, want 4", n)
	}
	for name, s := range map[string][]float64{
		"rates": m.rates, "bitsSet": m.bitsSet, "maxObserved": m.maxObserved,
		"accesses": m.accesses, "remoteByRegion": m.remoteByRegion, "occDistinct": m.occDistinct,
	} {
		if len(s) != 128 || cap(s) != 128 {
			t.Errorf("%s has len %d cap %d, want 128/128", name, len(s), cap(s))
		}
	}
	for name, s := range map[string][]uint64{"lastAccess": m.lastAccess, "occA": m.occA} {
		if len(s) != 128 || cap(s) != 128 {
			t.Errorf("%s has len %d cap %d, want 128/128", name, len(s), cap(s))
		}
	}
}
