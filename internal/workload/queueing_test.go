package workload

import (
	"math"
	"testing"
	"time"

	"sol/internal/stats"
)

// refQueueServer is the queueServer this package shipped before the
// head-indexed FIFO: time.Time arrivals and a whole-queue compaction on
// every tick that finishes a request. It is the oracle the FIFO must
// match bit for bit.
type refQueueServer struct {
	rng        *stats.RNG
	arrivals   stats.PoissonSampler
	meanDemand float64
	queue      []refRequest
	latencies  []float64
	served     uint64
	lastNow    time.Time
}

type refRequest struct {
	arrived   time.Time
	remaining float64
}

func (q *refQueueServer) step(now time.Time, dt time.Duration, res Resources, rate float64) Usage {
	q.lastNow = now.Add(dt)
	sec := dt.Seconds()
	n := q.arrivals.Draw(q.rng, rate*sec)
	for i := 0; i < n; i++ {
		q.queue = append(q.queue, refRequest{arrived: now, remaining: q.rng.ExpFloat64() * q.meanDemand})
	}
	cores := int(res.Cores)
	if cores > len(q.queue) {
		cores = len(q.queue)
	}
	perCore := res.FreqGHz * sec
	busyCores := 0.0
	finished := 0
	for i := 0; i < cores; i++ {
		r := &q.queue[i]
		if r.remaining <= perCore {
			if perCore > 0 {
				busyCores += r.remaining / perCore
			}
			q.latencies = append(q.latencies, now.Add(dt).Sub(r.arrived).Seconds())
			q.served++
			r.remaining = 0
			finished++
		} else {
			r.remaining -= perCore
			busyCores++
		}
	}
	if finished > 0 {
		keep := q.queue[:0]
		for _, r := range q.queue {
			if r.remaining > 0 {
				keep = append(keep, r)
			}
		}
		q.queue = keep
	}
	unmet := float64(len(q.queue)) - busyCores
	if unmet < 0 {
		unmet = 0
	}
	return Usage{Util: busyCores, Unmet: unmet}
}

func (q *refQueueServer) observedLatencies() []float64 {
	out := append([]float64(nil), q.latencies...)
	for _, r := range q.queue {
		out = append(out, q.lastNow.Sub(r.arrived).Seconds())
	}
	return out
}

// queuePhase is a stretch of ticks under one load and one grant.
type queuePhase struct {
	ticks int
	dt    time.Duration
	rate  float64 // requests per second
	res   Resources
}

// randomQueuePhases draws n phases around a server of 8 cores at
// 1.5 GHz and 30 ms·GHz of demand (capacity 400 requests/s): idle to
// 4x overloaded, grants down to zero cores or zero frequency, and the
// tick lengths the nodes use (50 us harvest sampling to 10 ms).
func randomQueuePhases(rng *stats.RNG, n int) []queuePhase {
	dts := []time.Duration{50 * time.Microsecond, time.Millisecond, time.Millisecond, 10 * time.Millisecond}
	rates := []float64{0, 40, 300, 400, 600, 1600}
	cores := []float64{0, 1, 2.7, 8, 8, 16}
	freqs := []float64{0, 1.5, 1.5, 2.3, 3.1}
	out := make([]queuePhase, n)
	for i := range out {
		out[i] = queuePhase{
			ticks: 50 + rng.Intn(400),
			dt:    dts[rng.Intn(len(dts))],
			rate:  rates[rng.Intn(len(rates))],
			res:   Resources{Cores: cores[rng.Intn(len(cores))], FreqGHz: freqs[rng.Intn(len(freqs))]},
		}
	}
	return out
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestQueueServerMatchesWholeQueueCompaction drives the FIFO and the
// reference over seeded random schedules that overload to a depth past
// 50k in bursts larger than the backing array, drain to empty, and
// starve the server of cores and of frequency: every tick's usage,
// served count and depth, and at every phase boundary the latency log,
// p99 and mean latency, must be bit-equal.
func TestQueueServerMatchesWholeQueueCompaction(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1] // the reference is O(depth) a tick; CI runs -short under -race
	}
	for _, seed := range seeds {
		sched := stats.NewRNG(seed * 7919)
		var phases []queuePhase
		phases = append(phases, randomQueuePhases(sched, 6)...)
		// 3000 arrivals a tick against 0.4 served: bursts that outrun
		// append's growth, to a depth of ~60k.
		phases = append(phases, queuePhase{ticks: 20, dt: time.Millisecond, rate: 3e6, res: Resources{Cores: 8, FreqGHz: 1.5}})
		phases = append(phases, randomQueuePhases(sched, 4)...)
		// Near-stable depth: the reclaim path, not the regrow path.
		phases = append(phases, queuePhase{ticks: 4000, dt: 10 * time.Millisecond, rate: 390, res: Resources{Cores: 8, FreqGHz: 1.5}})
		// Every core finishes a request every tick until nothing is left.
		phases = append(phases, queuePhase{ticks: 40, dt: time.Millisecond, rate: 0, res: Resources{Cores: 4096, FreqGHz: 1e6}})
		phases = append(phases, randomQueuePhases(sched, 4)...)

		q := newQueueServer(stats.NewRNG(seed), 0.03)
		ref := &refQueueServer{rng: stats.NewRNG(seed), meanDemand: 0.03}
		now := epoch.Add(time.Duration(seed) * 1234567 * time.Nanosecond)
		maxDepth, drained := 0, false
		for pi, ph := range phases {
			for i := 0; i < ph.ticks; i++ {
				got := q.step(now, ph.dt, ph.res, ph.rate)
				want := ref.step(now, ph.dt, ph.res, ph.rate)
				now = now.Add(ph.dt)
				if math.Float64bits(got.Util) != math.Float64bits(want.Util) ||
					math.Float64bits(got.Unmet) != math.Float64bits(want.Unmet) {
					t.Fatalf("seed %d phase %d tick %d: usage %+v, reference %+v", seed, pi, i, got, want)
				}
				if q.served != ref.served || q.depth() != len(ref.queue) {
					t.Fatalf("seed %d phase %d tick %d: served %d depth %d, reference %d / %d",
						seed, pi, i, q.served, q.depth(), ref.served, len(ref.queue))
				}
				if d := q.depth(); d > maxDepth {
					maxDepth = d
				} else if d == 0 && maxDepth >= 50000 {
					drained = true
				}
			}
			if !sameFloats(q.latencies, ref.latencies) {
				t.Fatalf("seed %d phase %d: latency logs differ", seed, pi)
			}
			observed := ref.observedLatencies()
			if got, want := q.meanLatency(), stats.Mean(observed); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d phase %d: mean latency %v, reference %v", seed, pi, got, want)
			}
			if got, want := q.p99(), stats.Percentile(observed, 99); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d phase %d: p99 %v, reference %v", seed, pi, got, want)
			}
		}
		if maxDepth < 50000 || !drained {
			t.Fatalf("seed %d: max depth %d, drained after it %v; the schedule must overload past 50k and drain", seed, maxDepth, drained)
		}
	}
}

// TestQueueServerOverloadedStepAllocs: at a deep, stable depth a tick
// neither allocates nor regrows the backing array — spent head slots
// are reclaimed in place.
func TestQueueServerOverloadedStepAllocs(t *testing.T) {
	q := newQueueServer(stats.NewRNG(1), 0.03)
	res := Resources{Cores: 8, FreqGHz: 1.5}
	now := epoch
	// 315 requests/s is what the grant retires at 10 ms ticks (a core
	// that finishes mid-tick idles to the tick's end), so depth holds.
	tick := func(rate float64) {
		q.step(now, 10*time.Millisecond, res, rate)
		now = now.Add(10 * time.Millisecond)
	}
	tick(1e7) // one burst to a depth of 100k
	for i := 0; i < 20000; i++ {
		tick(315)
	}
	depth, capacity, served := q.depth(), cap(q.queue), q.served
	if avg := testing.AllocsPerRun(20000, func() { tick(315) }); avg != 0 {
		t.Fatalf("overloaded tick allocates %.1f times, want 0 amortised", avg)
	}
	if d := q.depth(); depth < 95000 || d < depth*98/100 || d > depth*102/100 {
		t.Fatalf("depth %d -> %d, want stable near 100k", depth, d)
	}
	if cap(q.queue) != capacity {
		t.Fatalf("backing array regrew %d -> %d at stable depth %d", capacity, cap(q.queue), depth)
	}
	if q.served-served < 50000 {
		t.Fatalf("served %d requests in 20k ticks, want enough to recycle the spent slots several times", q.served-served)
	}
}
