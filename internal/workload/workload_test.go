package workload

import (
	"math"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/stats"
)

var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// epochClock is the clock the tests' Steps are on: anchored at epoch,
// never driven.
var epochClock = clock.NewVirtual(epoch)

// stepAt is the Step a node on epochClock hands its workloads for the
// dt tick starting at now.
func stepAt(now time.Time, dt time.Duration) Step {
	return Step{Clock: epochClock, Now: int64(now.Sub(epoch)), Len: int64(dt), Sec: dt.Seconds()}
}

// drive runs a workload for total at dt ticks with fixed resources,
// returning accumulated core-seconds of utilization.
func drive(w CPUWorkload, total, dt time.Duration, res Resources) float64 {
	var util float64
	for now := epoch; now.Before(epoch.Add(total)); now = now.Add(dt) {
		u := w.Tick(stepAt(now, dt), res)
		util += u.Util * dt.Seconds()
	}
	return util
}

func TestSyntheticBatchCompletion(t *testing.T) {
	// 45 core·GHz·s of work on 4 cores at 1.5 GHz = 7.5 s per batch.
	s := NewSynthetic(100*time.Second, 45)
	res := Resources{Cores: 4, FreqGHz: 1.5}
	for now := epoch; now.Before(epoch.Add(250 * time.Second)); now = now.Add(10 * time.Millisecond) {
		s.Tick(stepAt(now, 10*time.Millisecond), res)
	}
	if s.BatchesDone() != 3 { // arrivals at 0, 100, 200
		t.Fatalf("BatchesDone = %d, want 3", s.BatchesDone())
	}
	if mt := s.MeanBatchSeconds(); math.Abs(mt-7.5) > 0.1 {
		t.Fatalf("MeanBatchSeconds = %v, want ~7.5", mt)
	}
}

func TestSyntheticFasterAtHigherFrequency(t *testing.T) {
	run := func(f float64) float64 {
		s := NewSynthetic(100*time.Second, 45)
		res := Resources{Cores: 4, FreqGHz: f}
		for now := epoch; now.Before(epoch.Add(150 * time.Second)); now = now.Add(10 * time.Millisecond) {
			s.Tick(stepAt(now, 10*time.Millisecond), res)
		}
		return s.MeanBatchSeconds()
	}
	t15, t23 := run(1.5), run(2.3)
	speedup := t15 / t23
	if math.Abs(speedup-2.3/1.5) > 0.05 {
		t.Fatalf("speedup = %v, want ~%v (CPU-bound scaling)", speedup, 2.3/1.5)
	}
}

func TestSyntheticPhaseCallbacks(t *testing.T) {
	s := NewSynthetic(50*time.Second, 30)
	var transitions []bool
	s.OnPhase(func(busy bool, at time.Time) { transitions = append(transitions, busy) })
	res := Resources{Cores: 4, FreqGHz: 1.5}
	for now := epoch; now.Before(epoch.Add(120 * time.Second)); now = now.Add(10 * time.Millisecond) {
		s.Tick(stepAt(now, 10*time.Millisecond), res)
	}
	// Expect busy,idle,busy,idle,busy(,idle) alternation starting busy.
	if len(transitions) < 4 {
		t.Fatalf("only %d phase transitions", len(transitions))
	}
	for i, b := range transitions {
		if b != (i%2 == 0) {
			t.Fatalf("transition %d = %v, want alternation starting busy", i, b)
		}
	}
}

func TestSyntheticIdleUtilLow(t *testing.T) {
	s := NewSynthetic(1000*time.Second, 15) // one batch, long idle
	res := Resources{Cores: 4, FreqGHz: 1.5}
	var idleUtil float64
	var idleTicks int
	for now := epoch; now.Before(epoch.Add(60 * time.Second)); now = now.Add(10 * time.Millisecond) {
		u := s.Tick(stepAt(now, 10*time.Millisecond), res)
		if !s.Busy() {
			idleUtil += u.Util
			idleTicks++
		}
	}
	if idleTicks == 0 {
		t.Fatal("workload never idled")
	}
	if avg := idleUtil / float64(idleTicks); avg > 0.1 {
		t.Fatalf("idle utilization = %v, want near zero", avg)
	}
}

func TestObjectStoreHighLoadAndLatency(t *testing.T) {
	o := NewObjectStore(stats.NewRNG(1), 4, 1.5, 0.85)
	util := drive(o, 30*time.Second, 10*time.Millisecond, Resources{Cores: 4, FreqGHz: 1.5})
	avgUtil := util / 30
	if avgUtil < 2.8 || avgUtil > 4.0 {
		t.Fatalf("average util = %v cores, want ~3.4 of 4", avgUtil)
	}
	if o.Served() == 0 || o.P99LatencySeconds() <= 0 {
		t.Fatal("no requests served / no latency")
	}
	if o.P99LatencySeconds() <= o.MeanLatencySeconds() {
		t.Fatal("P99 <= mean latency")
	}
}

func TestObjectStoreLatencyImprovesWithFrequency(t *testing.T) {
	run := func(f float64) float64 {
		o := NewObjectStore(stats.NewRNG(7), 4, 1.5, 0.85)
		drive(o, 30*time.Second, 10*time.Millisecond, Resources{Cores: 4, FreqGHz: f})
		return o.P99LatencySeconds()
	}
	if l23, l15 := run(2.3), run(1.5); l23 >= l15 {
		t.Fatalf("P99 at 2.3GHz (%v) not better than at 1.5GHz (%v)", l23, l15)
	}
}

func TestDiskSpeedFrequencyInsensitive(t *testing.T) {
	d15 := NewDiskSpeed()
	d23 := NewDiskSpeed()
	drive(d15, 10*time.Second, 10*time.Millisecond, Resources{Cores: 4, FreqGHz: 1.5})
	drive(d23, 10*time.Second, 10*time.Millisecond, Resources{Cores: 4, FreqGHz: 2.3})
	if d15.Ops() != d23.Ops() {
		t.Fatalf("disk throughput changed with frequency: %v vs %v", d15.Ops(), d23.Ops())
	}
	if math.Abs(d15.Ops()-5000) > 1 {
		t.Fatalf("Ops = %v, want 5000", d15.Ops())
	}
}

func TestDiskSpeedLowAlphaProfile(t *testing.T) {
	d := NewDiskSpeed()
	u := d.Tick(stepAt(epoch, 10*time.Millisecond), Resources{Cores: 4, FreqGHz: 1.5})
	if u.StallFrac < 0.8 {
		t.Fatalf("StallFrac = %v, want heavily stalled", u.StallFrac)
	}
	if u.Util > 1 {
		t.Fatalf("Util = %v, want small CPU footprint", u.Util)
	}
}

func TestElasticConsumesEverything(t *testing.T) {
	e := NewElastic()
	got := drive(e, 5*time.Second, 10*time.Millisecond, Resources{Cores: 3, FreqGHz: 1.5})
	if math.Abs(got-15) > 1e-6 {
		t.Fatalf("consumed %v core-seconds, want 15", got)
	}
	if math.Abs(e.CoreSeconds()-15) > 1e-6 {
		t.Fatalf("CoreSeconds = %v", e.CoreSeconds())
	}
}

func TestTailBenchPhasesAndLatency(t *testing.T) {
	tb := NewImageDNN(stats.NewRNG(3), 8, 1.5)
	res := Resources{Cores: 8, FreqGHz: 1.5}
	var minU, maxU = math.Inf(1), 0.0
	window := 0.0
	ticks := 0
	dt := time.Millisecond
	for now := epoch; now.Before(epoch.Add(20 * time.Second)); now = now.Add(dt) {
		u := tb.Tick(stepAt(now, dt), res)
		window += u.Util
		ticks++
		if ticks%200 == 0 { // 200ms averages
			avg := window / 200
			minU = math.Min(minU, avg)
			maxU = math.Max(maxU, avg)
			window = 0
		}
	}
	if tb.Served() == 0 || tb.P99LatencySeconds() <= 0 {
		t.Fatal("tailbench served nothing")
	}
	if maxU-minU < 2 {
		t.Fatalf("utilization range [%v,%v] too flat; phases not visible", minU, maxU)
	}
}

func TestTailBenchSurgeCallback(t *testing.T) {
	tb := NewMoses(stats.NewRNG(4), 8, 1.5)
	surges := 0
	tb.OnSurge(func(at time.Time, util float64) { surges++ })
	res := Resources{Cores: 8, FreqGHz: 1.5}
	for now := epoch; now.Before(epoch.Add(10 * time.Second)); now = now.Add(time.Millisecond) {
		tb.Tick(stepAt(now, time.Millisecond), res)
	}
	if surges == 0 {
		t.Fatal("no surges observed in 10s of moses")
	}
}

func TestTailBenchLatencyDegradesWithFewerCores(t *testing.T) {
	run := func(cores float64) float64 {
		tb := NewImageDNN(stats.NewRNG(5), 8, 1.5)
		drive(tb, 20*time.Second, time.Millisecond, Resources{Cores: cores, FreqGHz: 1.5})
		return tb.P99LatencySeconds()
	}
	full, starved := run(8), run(3)
	if starved <= full {
		t.Fatalf("P99 with 3 cores (%v) not worse than with 8 (%v)", starved, full)
	}
}

func TestTailBenchReportsUnmetWhenStarved(t *testing.T) {
	tb := NewMoses(stats.NewRNG(6), 8, 1.5)
	res := Resources{Cores: 1, FreqGHz: 1.5}
	var unmet float64
	for now := epoch; now.Before(epoch.Add(5 * time.Second)); now = now.Add(time.Millisecond) {
		u := tb.Tick(stepAt(now, time.Millisecond), res)
		unmet += u.Unmet
	}
	if unmet == 0 {
		t.Fatal("starved tailbench reported no unmet demand")
	}
}

func TestZipfTraceConservesTotalRate(t *testing.T) {
	tr := NewObjectStoreTrace(256, 1)
	out := make([]float64, 256)
	tr.Rates(epoch, out)
	sum := 0.0
	for _, r := range out {
		sum += r
	}
	if math.Abs(sum-150000)/150000 > 0.01 {
		t.Fatalf("total rate = %v, want 150000", sum)
	}
}

func TestZipfTraceSkewed(t *testing.T) {
	tr := NewObjectStoreTrace(256, 2)
	out := make([]float64, 256)
	tr.Rates(epoch, out)
	top := stats.Max(out)
	mean := stats.Mean(out)
	if top < 10*mean {
		t.Fatalf("max rate %v vs mean %v: not skewed enough", top, mean)
	}
}

func TestZipfTraceShifts(t *testing.T) {
	tr := NewSpecJBBTrace(128, 3)
	a := make([]float64, 128)
	b := make([]float64, 128)
	tr.Rates(epoch, a)
	tr.Rates(epoch.Add(5*time.Minute), b)
	changed := 0
	for i := range a {
		if a[i] != b[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("trace never shifted over 5 minutes")
	}
}

// TestSharedZipfWeightsBitIdentical pins the family to the per-trace
// construction it replaced. The reference below is that construction,
// written out: a generator split off the seed's for a Zipf sampler of
// the trace's own, weights read back as cdf[k]-cdf[k-1], then the rank
// permutation. Every trace of a family must carry those weights bit for
// bit — in one shared table — and that permutation, and sharing must
// not couple traces: one stepped beside a sibling reads what it reads
// stepped alone.
func TestSharedZipfWeightsBitIdentical(t *testing.T) {
	const regions = 128
	fam := SQLTraces(regions)
	var first *ZipfTrace
	for _, seed := range []uint64{1, 7, 1_000_007, 1 << 40} {
		rng := stats.NewRNG(seed)
		z := stats.NewZipf(rng.Split(), regions, 0.7)
		rankOf := rng.Perm(regions)

		tr := fam.New(seed)
		if first == nil {
			first = tr
		} else if &tr.weights[0] != &first.weights[0] {
			t.Fatalf("seed %d: trace has a weight table of its own", seed)
		}
		for k := 0; k < regions; k++ {
			if got, want := math.Float64bits(tr.weights[k]), math.Float64bits(z.Weight(k)); got != want {
				t.Fatalf("seed %d rank %d: shared weight bits %#x, per-trace NewZipf %#x", seed, k, got, want)
			}
			if tr.rankOf[k] != rankOf[k] {
				t.Fatalf("seed %d region %d: rank %d, per-trace construction %d", seed, k, tr.rankOf[k], rankOf[k])
			}
		}
	}

	a, sibling, alone := fam.New(11), fam.New(12), NewSQLTrace(regions, 11)
	got, other, want := make([]float64, regions), make([]float64, regions), make([]float64, regions)
	for at := epoch; at.Before(epoch.Add(5 * time.Minute)); at = at.Add(7 * time.Second) {
		a.Rates(at, got)
		sibling.Rates(at, other)
		alone.Rates(at, want)
		for r := range want {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("at +%v region %d: rate %v beside a sibling, %v alone", at.Sub(epoch), r, got[r], want[r])
			}
		}
	}
}

func TestZipfTraceRatesLenPanics(t *testing.T) {
	tr := NewSQLTrace(64, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length Rates slice did not panic")
		}
	}()
	tr.Rates(epoch, make([]float64, 3))
}

func TestOscillatingTraceSleeps(t *testing.T) {
	tr := NewOscillatingTrace(128, 150*time.Second, 80*time.Second, 4)
	out := make([]float64, 128)
	sum := func(at time.Time) float64 {
		tr.Rates(at, out)
		s := 0.0
		for _, r := range out {
			s += r
		}
		return s
	}
	active := sum(epoch.Add(10 * time.Second))
	asleep := sum(epoch.Add(200 * time.Second)) // 150s run + 50s into sleep
	if asleep > active/100 {
		t.Fatalf("sleep rate %v not far below active rate %v", asleep, active)
	}
	awake2 := sum(epoch.Add(240 * time.Second)) // second run period
	if awake2 < active/2 {
		t.Fatalf("workload did not wake up: %v vs %v", awake2, active)
	}
}

func TestTraceNames(t *testing.T) {
	if NewObjectStoreTrace(8, 1).Name() != "ObjectStore" ||
		NewSQLTrace(8, 1).Name() != "SQL" ||
		NewSpecJBBTrace(8, 1).Name() != "SpecJBB" {
		t.Fatal("trace names wrong")
	}
	if NewObjectStoreTrace(8, 1).Regions() != 8 {
		t.Fatal("Regions() wrong")
	}
}

// TestQueueServerStepAllocs pins the latency-critical workloads' tick
// at amortised zero allocations: once the request queue and the sojourn
// multiset have grown, a thousand 1 ms ticks of Poisson arrivals and
// service allocate less than once on average. The multiset holds one
// bin per distinct sojourn, so once the range has been seen it stops
// growing however many requests complete.
func TestQueueServerStepAllocs(t *testing.T) {
	w := NewImageDNN(stats.NewRNG(1), 8, 1.5)
	res := Resources{Cores: 8, FreqGHz: 1.5}
	now := epoch
	tick := func() {
		w.Tick(stepAt(now, time.Millisecond), res)
		now = now.Add(time.Millisecond)
	}
	for i := 0; i < 20000; i++ {
		tick()
	}
	bins, served := cap(w.q.bins), w.Served()
	if avg := testing.AllocsPerRun(1000, tick); avg != 0 {
		t.Fatalf("workload tick allocates %.1f times, want 0 amortised", avg)
	}
	if w.Served() == served {
		t.Fatal("no requests were served")
	}
	for i := 0; i < 20000; i++ {
		tick()
	}
	if cap(w.q.bins) != bins {
		t.Fatalf("sojourn bins regrew %d -> %d over %d more completions", bins, cap(w.q.bins), w.Served()-served)
	}
}
