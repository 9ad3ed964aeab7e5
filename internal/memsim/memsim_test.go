package memsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"sol/internal/clock"
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

func TestLastAccessTracking(t *testing.T) {
	clk, m := newMem(t, &twoTrace{regions: 4, hot: 1000, cold: 0})
	m.Start()
	clk.RunFor(2 * time.Second)
	if m.LastAccess(0).IsZero() {
		t.Fatal("hot region has no last-access time")
	}
	if !m.LastAccess(1).IsZero() {
		t.Fatal("untouched region has a last-access time")
	}
}

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

// TestNewAllocs pins a Memory at five heap objects — the struct, its
// generator, the tier and last-access arrays, and the one slab the five
// per-region float64 arrays share — and checks the arrays, though
// neighbours in the slab, cannot grow into each other.
func TestNewAllocs(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	tr := &flatTrace{regions: 128, rate: 1000}
	var m *Memory
	if n := testing.AllocsPerRun(50, func() { m = MustNew(clk, DefaultConfig(128), tr) }); n != 5 {
		t.Fatalf("New allocates %.0f objects, want 5", n)
	}
	for name, s := range map[string][]float64{
		"rates": m.rates, "bitsSet": m.bitsSet, "maxObserved": m.maxObserved,
		"accesses": m.accesses, "remoteByRegion": m.remoteByRegion,
	} {
		if len(s) != 128 || cap(s) != 128 {
			t.Errorf("%s has len %d cap %d, want 128/128", name, len(s), cap(s))
		}
	}
}
