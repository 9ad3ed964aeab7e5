package memory

import (
	"errors"
	"math"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/memsim"
	"sol/internal/stats"
	"sol/internal/workload"
)

var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// skewTrace gives the first `hot` regions a high rate, the next `warm`
// regions a moderate rate, and the rest nothing.
type skewTrace struct {
	regions   int
	hot, warm int
	hotRate   float64
	warmRate  float64
}

func (s *skewTrace) Name() string { return "skew" }
func (s *skewTrace) Regions() int { return s.regions }
func (s *skewTrace) Rates(now time.Time, out []float64) {
	for i := range out {
		switch {
		case i < s.hot:
			out[i] = s.hotRate
		case i < s.hot+s.warm:
			out[i] = s.warmRate
		default:
			out[i] = 0
		}
	}
}

func memRig(t *testing.T, tr workload.MemoryTrace) (*clock.Virtual, *memsim.Memory) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	m := memsim.MustNew(clk, memsim.DefaultConfig(tr.Regions()), tr)
	m.Start()
	return clk, m
}

func launchAgent(t *testing.T, clk *clock.Virtual, mem *memsim.Memory, opts core.Options) *Agent {
	t.Helper()
	ag, err := start(clk, mem, DefaultConfig(), Schedule(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ag.Stop)
	return ag
}

func defaultTrace() *skewTrace {
	// 64 regions: 12 hot (90% of traffic), 12 warm, 40 idle.
	return &skewTrace{regions: 64, hot: 12, warm: 12, hotRate: 8000, warmRate: 120}
}

func TestConfigValidation(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	mem := memsim.MustNew(clk, memsim.DefaultConfig(4), &skewTrace{regions: 4})
	cfg := DefaultConfig()
	cfg.CoverageTarget = 0
	if err := new(Model).init(mem, cfg); err == nil {
		t.Fatal("invalid coverage accepted")
	}
}

func TestLossRatioMath(t *testing.T) {
	// At the fastest rate everything is lossless.
	if lr := lossRatio(0.3, 0); math.Abs(lr-1) > 1e-9 {
		t.Fatalf("lossRatio(g,0) = %v, want 1", lr)
	}
	// Loss grows with slower arms.
	prev := 1.0
	for arm := 1; arm < NumArms; arm++ {
		lr := lossRatio(0.3, arm)
		if lr >= prev {
			t.Fatalf("lossRatio not decreasing at arm %d: %v >= %v", arm, lr, prev)
		}
		prev = lr
	}
	// Tiny g: nearly lossless at any arm.
	if lr := lossRatio(0.0001, NumArms-1); lr < 0.99 {
		t.Fatalf("cold region lossRatio = %v, want ~1", lr)
	}
}

func TestPerTickFracInversion(t *testing.T) {
	for _, g := range []float64{0.01, 0.1, 0.3} {
		for arm := 0; arm < NumArms; arm++ {
			n := float64(uint(1) << uint(arm))
			f := 1 - math.Pow(1-g, n)
			if f >= 0.9 {
				continue // saturation destroys the signal; no inversion
			}
			got := perTickFrac(f, arm)
			if math.Abs(got-g) > 0.02 {
				t.Fatalf("perTickFrac(%v, %d) = %v, want %v", f, arm, got, g)
			}
		}
	}
	// At saturation the inversion must still return something sane.
	if g := perTickFrac(1.0, 3); g <= 0 || g > 1 {
		t.Fatalf("saturated inversion = %v", g)
	}
}

func TestWellSampledCriteria(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	mem := memsim.MustNew(clk, memsim.DefaultConfig(4), &skewTrace{regions: 4})
	m := new(Model)
	if err := m.init(mem, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// Hot region (g≈0.95): only the fastest arm is right.
	if !m.wellSampled(0.95, 0) {
		t.Fatal("hot region at max rate should be well sampled")
	}
	if m.wellSampled(0.95, 2) {
		t.Fatal("hot region at slow rate should be undersampled")
	}
	// Silent region: only the slowest arm is right.
	if !m.wellSampled(0, NumArms-1) {
		t.Fatal("silent region at min rate should be well sampled")
	}
	if m.wellSampled(0, 0) {
		t.Fatal("silent region at max rate should be oversampled")
	}
	// Moderate region (g=0.05): some slower arm is right; the fastest
	// is oversampling and the slowest undersampling.
	if m.wellSampled(0.05, 0) {
		t.Fatal("g=0.05 at max rate should be oversampled")
	}
	if m.wellSampled(0.05, NumArms-1) {
		t.Fatal("g=0.05 at min rate should be undersampled")
	}
	ok := false
	for arm := 1; arm < NumArms-1; arm++ {
		if m.wellSampled(0.05, arm) {
			ok = true
		}
	}
	if !ok {
		t.Fatal("no arm is well-sampled for g=0.05")
	}
}

func TestLearnsScanRatesAndReducesResets(t *testing.T) {
	tr := defaultTrace()
	clkA, memA := memRig(t, tr)
	launchAgent(t, clkA, memA, core.Options{})
	clkA.RunFor(8 * 40 * time.Second) // ~8 epochs

	// Max-rate baseline for comparison.
	clkB, memB := memRig(t, defaultTrace())
	pol := NewStaticPolicy(clkB, memB, 1, 0.85, 128)
	pol.Start()
	clkB.RunFor(8 * 40 * time.Second)
	pol.Stop()

	agentScans := memA.Snapshot().Scans
	baseScans := memB.Snapshot().Scans
	if agentScans >= baseScans {
		t.Fatalf("agent scans (%d) not fewer than max-rate baseline (%d)", agentScans, baseScans)
	}
	if float64(agentScans) > 0.7*float64(baseScans) {
		t.Fatalf("agent only reduced scans to %.0f%% of baseline",
			100*float64(agentScans)/float64(baseScans))
	}
}

func TestMeetsSLOOnSkewedTrace(t *testing.T) {
	tr := defaultTrace()
	clk, mem := memRig(t, tr)
	launchAgent(t, clk, mem, core.Options{})
	clk.RunFor(3 * 40 * time.Second) // warmup epochs
	before := mem.Snapshot()
	clk.RunFor(3 * 40 * time.Second)
	after := mem.Snapshot()
	if rf := after.RemoteFraction(before); rf > 0.20 {
		t.Fatalf("remote fraction %.2f violates the 20%% SLO", rf)
	}
	// And it must actually offload something.
	if mem.Tier1Regions() == mem.Regions() {
		t.Fatal("agent never offloaded any region")
	}
}

func TestColdRegionsExcludedFromScanning(t *testing.T) {
	tr := &skewTrace{regions: 32, hot: 4, warm: 0, hotRate: 5000}
	clk, mem := memRig(t, tr)
	cfg := DefaultConfig()
	cfg.ColdAfter = 60 * time.Second
	cfg.AuditFrac = 0 // no audits, so cold exclusion is visible
	ag, err := start(clk, mem, cfg, Schedule(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Stop()
	clk.RunFor(4 * 40 * time.Second)
	scansBefore := mem.Snapshot().Scans
	clk.RunFor(40 * time.Second) // one more epoch: cold regions skipped
	perEpoch := mem.Snapshot().Scans - scansBefore
	// 28 cold regions excluded: scans per 128-tick epoch must be far
	// below 32 regions × (128/arm periods). The 4 hot regions at max
	// rate cost 128 scans each.
	if perEpoch > 600 {
		t.Fatalf("scans per epoch = %d; cold regions not excluded", perEpoch)
	}
}

func TestScanFaultValidation(t *testing.T) {
	tr := defaultTrace()
	clk, mem := memRig(t, tr)
	ag := launchAgent(t, clk, mem, core.Options{})
	mem.SetScanFault(func(r int) error { return errors.New("driver EIO") })
	clk.RunFor(60 * time.Second)
	st := ag.Runtime.Stats()
	if st.DataRejected == 0 {
		t.Fatal("driver errors were not rejected by validation")
	}
}

func TestBrokenModelFailsAudit(t *testing.T) {
	tr := defaultTrace()
	clk, mem := memRig(t, tr)
	ag := launchAgent(t, clk, mem, core.Options{})
	clk.RunFor(2 * 40 * time.Second)
	ag.Model.Break(true)
	clk.RunFor(3 * 40 * time.Second)
	if !ag.Health().ModelFailing {
		t.Fatalf("audit did not catch forced min-rate scanning (missed=%.2f)",
			ag.Model.MissedFraction())
	}
}

func TestDefaultPredictionConservative(t *testing.T) {
	tr := defaultTrace()
	clk, mem := memRig(t, tr)
	ag := launchAgent(t, clk, mem, core.Options{})
	clk.RunFor(2 * 40 * time.Second)
	d := ag.Model.DefaultPredict()
	maxOffload := int(float64(mem.Regions())*DefaultConfig().DefaultOffloadFrac) + 1
	if len(d.Value.Tier2) > maxOffload {
		t.Fatalf("default offloads %d regions, want <= %d", len(d.Value.Tier2), maxOffload)
	}
}

func TestActuatorAppliesPlacement(t *testing.T) {
	tr := defaultTrace()
	_, mem := memRig(t, tr)
	a := new(Actuator)
	a.init(mem, DefaultConfig())
	rates := make([]float64, 64)
	a.TakeAction(&core.Prediction[Placement]{Value: Placement{Tier2: []int{1, 3, 5}, Rates: rates}})
	for _, r := range []int{1, 3, 5} {
		if mem.InTier1(r) {
			t.Fatalf("region %d not demoted", r)
		}
	}
	if !mem.InTier1(0) {
		t.Fatal("region 0 should stay in tier 1")
	}
	// nil prediction: no change.
	a.TakeAction(nil)
	if mem.InTier1(1) {
		t.Fatal("nil prediction changed placement")
	}
}

func TestActuatorPromotionRespectsCapacity(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	cfg := memsim.DefaultConfig(8)
	cfg.Tier1Capacity = 4
	mem := memsim.MustNew(clk, cfg, &skewTrace{regions: 8})
	a := new(Actuator)
	a.init(mem, DefaultConfig())
	// Demote everything, then ask for everything back: only 4 fit.
	rates := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	a.TakeAction(&core.Prediction[Placement]{Value: Placement{
		Tier2: []int{0, 1, 2, 3, 4, 5, 6, 7}, Rates: rates,
	}})
	a.TakeAction(&core.Prediction[Placement]{Value: Placement{Tier2: nil, Rates: rates}})
	if got := mem.Tier1Regions(); got != 4 {
		t.Fatalf("tier 1 regions = %d, want capacity 4", got)
	}
	// The hottest regions must have been promoted first.
	for r := 0; r < 4; r++ {
		if !mem.InTier1(r) {
			t.Fatalf("hot region %d not promoted before colder ones", r)
		}
	}
}

func TestActuatorSafeguardMigratesHotBack(t *testing.T) {
	tr := defaultTrace()
	clk, mem := memRig(t, tr)
	a := new(Actuator)
	a.init(mem, DefaultConfig())
	// Pathological placement: all hot regions remote.
	rates := make([]float64, 64)
	for i := 0; i < 12; i++ {
		rates[i] = 1000
	}
	var all []int
	for i := 0; i < 64; i++ {
		all = append(all, i)
	}
	a.TakeAction(&core.Prediction[Placement]{Value: Placement{Tier2: all, Rates: rates}})
	if a.AssessPerformance() { // first call primes the window
		_ = true
	}
	clk.RunFor(2 * time.Second)
	if a.AssessPerformance() {
		t.Fatal("all-remote placement passed the SLO check")
	}
	a.Mitigate()
	for r := 0; r < 12; r++ {
		if !mem.InTier1(r) {
			t.Fatalf("hot region %d not migrated back by mitigation", r)
		}
	}
}

func TestCleanUpRestoresTier1(t *testing.T) {
	tr := defaultTrace()
	_, mem := memRig(t, tr)
	a := new(Actuator)
	a.init(mem, DefaultConfig())
	var all []int
	for i := 0; i < 64; i++ {
		all = append(all, i)
	}
	a.TakeAction(&core.Prediction[Placement]{Value: Placement{Tier2: all}})
	a.CleanUp()
	a.CleanUp()
	if mem.Tier1Regions() != 64 {
		t.Fatalf("CleanUp left %d regions in tier 1, want 64", mem.Tier1Regions())
	}
}

func TestStaticPolicyMaxRateScansEverything(t *testing.T) {
	tr := defaultTrace()
	clk, mem := memRig(t, tr)
	pol := NewStaticPolicy(clk, mem, 1, 0.85, 16)
	pol.Start()
	clk.RunFor(16 * 300 * time.Millisecond)
	pol.Stop()
	if got := mem.Snapshot().Scans; got != 16*64 {
		t.Fatalf("max-rate policy scanned %d times, want %d", got, 16*64)
	}
}

func TestStaticPolicyMinRateLosesResolution(t *testing.T) {
	// At the minimum rate, hot and warm regions all saturate, so the
	// baseline cannot rank them and the SLO collapses on a churning
	// trace, while the maximum rate holds it.
	attainment := func(every, epochTicks int) float64 {
		tr := workload.NewSpecJBBTrace(128, 3)
		clk, mem := memRig(t, tr)
		pol := NewStaticPolicy(clk, mem, every, 0.8, epochTicks)
		pol.Start()
		defer pol.Stop()
		clk.RunFor(2 * 40 * time.Second)
		prev := mem.Snapshot()
		ok := 0
		const windows = 120
		for i := 0; i < windows; i++ {
			clk.RunFor(time.Second)
			cur := mem.Snapshot()
			if cur.RemoteFraction(prev) <= 0.2 {
				ok++
			}
			prev = cur
		}
		return float64(ok) / windows
	}
	fast := attainment(1, 16)
	slow := attainment(32, 128)
	if slow >= fast {
		t.Fatalf("min-rate SLO attainment (%.2f) not worse than max-rate (%.2f)", slow, fast)
	}
	if fast < 0.9 {
		t.Fatalf("max-rate SLO attainment only %.2f", fast)
	}
}

func TestEpochDurationAccessor(t *testing.T) {
	tr := defaultTrace()
	clk, mem := memRig(t, tr)
	pol := NewStaticPolicy(clk, mem, 1, 0.8, 128)
	if pol.EpochDuration() != 38400*time.Millisecond {
		t.Fatalf("EpochDuration = %v", pol.EpochDuration())
	}
}

// perGroupFrac folds one audit region's per-tick fractions, logged in
// commit order, into what a scanner at interval every ticks would have
// seen per scan, on average. It is how the model scored audits while it
// kept that log, and it is the oracle auditAcc must match bit for bit.
func perGroupFrac(fracs []float64, every int) float64 {
	if every <= 1 {
		return stats.Mean(fracs)
	}
	var sum float64
	var groups int
	for i := 0; i < len(fracs); i += every {
		end := i + every
		if end > len(fracs) {
			end = len(fracs)
		}
		miss := 1.0
		for _, f := range fracs[i:end] {
			miss *= 1 - f
		}
		sum += 1 - miss
		groups++
	}
	if groups == 0 {
		return 0
	}
	return sum / float64(groups)
}

// oracleObserved is computeMissed's per-region pair over the log: the
// max-rate sum and the chosen-rate union summed over groups.
func oracleObserved(fracs []float64, every int) (max, chosen float64) {
	for _, f := range fracs {
		max += f
	}
	return max, perGroupFrac(fracs, every) * float64((len(fracs)+every-1)/every)
}

// TestAuditAccMatchesPerGroupFrac drives random per-tick fractions
// through an audit slot and the log it replaced: epochs of 1–160 ticks,
// so every arm ends on a partial group sometimes, with ticks skipped as
// a scan error skips them. For all six arms the slot must give
// UpdateModel's f and computeMissed's max and chosen with the log's
// exact bits.
func TestAuditAccMatchesPerGroupFrac(t *testing.T) {
	rng := stats.NewRNG(35)
	draw := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return float64(rng.Intn(513)) / 512 // a region's set pages
		}
		return rng.Float64()
	}
	var fracs []float64
	for trial := 0; trial < 2000; trial++ {
		ticks := 1 + rng.Intn(160)
		var acc auditAcc
		fracs = fracs[:0]
		for i := 0; i < ticks; i++ {
			if rng.Bool(0.1) {
				continue // scan error: the tick is never committed
			}
			f := draw()
			fracs = append(fracs, f)
			acc.add(f)
		}
		for arm := 0; arm < NumArms; arm++ {
			every := 1 << arm
			if got, want := acc.frac(arm), perGroupFrac(fracs, every); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, %d of %d ticks, arm %d: f = %v, log gives %v", trial, len(fracs), ticks, arm, got, want)
			}
			gotMax, gotChosen := acc.observed(arm)
			wantMax, wantChosen := oracleObserved(fracs, every)
			if math.Float64bits(gotMax) != math.Float64bits(wantMax) || math.Float64bits(gotChosen) != math.Float64bits(wantChosen) {
				t.Fatalf("trial %d, %d of %d ticks, arm %d: max, chosen = %v, %v; log gives %v, %v",
					trial, len(fracs), ticks, arm, gotMax, gotChosen, wantMax, wantChosen)
			}
		}
	}
}

// TestModelAuditMatchesLog runs a Model through epochs of random length
// with scan faults on random ticks, logging every committed audit
// fraction beside it. After each UpdateModel, an audited region's rate
// (scored on the arm it played) and the missed fraction (scored on the
// arms just selected) must equal what the log gives, bit for bit.
func TestModelAuditMatchesLog(t *testing.T) {
	clk, mem, m := newTestModel(t)
	rng := stats.NewRNG(36)
	fault := false
	eio := errors.New("driver EIO")
	mem.SetScanFault(func(int) error {
		if fault {
			return eio
		}
		return nil
	})
	pages := float64(mem.PagesPerRegion())
	tickSec := mem.Config().BaseTick.Seconds()
	log := make([][]float64, len(m.audit))
	for epoch := 0; epoch < 40; epoch++ {
		for i := range log {
			log[i] = log[i][:0]
		}
		for tick := 1 + rng.Intn(160); tick > 0; tick-- {
			fault = rng.Bool(0.1)
			clk.RunFor(300 * time.Millisecond)
			tk, _ := m.CollectData()
			if m.ValidateData(tk) != nil {
				continue
			}
			for _, s := range tk.Scans {
				if slot := m.regions[s.Region].auditSlot; slot >= 0 {
					log[slot] = append(log[slot], float64(s.SetPages)/pages)
				}
			}
			m.CommitData(tk.At, tk)
		}
		audited := append([]int(nil), m.auditList...)
		played := make([]int, len(audited))
		for i, r := range audited {
			played[i] = int(m.regions[r].arm)
		}
		m.UpdateModel()

		var atMax, atChosen float64
		for i, r := range audited {
			if len(log[i]) == 0 {
				continue
			}
			g := perTickFrac(perGroupFrac(log[i], 1<<played[i]), played[i])
			if got, want := m.rates[r], g*pages/tickSec; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("epoch %d, region %d at arm %d: rate %v, log gives %v", epoch, r, played[i], got, want)
			}
			max, chosen := oracleObserved(log[i], 1<<m.regions[r].arm)
			atMax += max
			atChosen += chosen
		}
		want := 0.0
		if atMax > 0 {
			want = stats.Clamp(1-atChosen/atMax, 0, 1)
		}
		if math.Float64bits(m.missed) != math.Float64bits(want) {
			t.Fatalf("epoch %d: missed %v, log gives %v", epoch, m.missed, want)
		}
	}
}
