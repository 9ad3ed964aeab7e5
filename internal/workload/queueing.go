package workload

import (
	"time"

	"sol/internal/stats"
)

// queueServer is a discrete-time multi-core queueing system shared by
// the latency-critical workloads (ObjectStore, ImageDNN, Moses).
// Requests arrive Poisson at a (possibly modulated) rate, each with an
// exponentially distributed service demand in core·GHz·seconds, and are
// served FIFO by up to Cores concurrent cores at FreqGHz. Request
// latency (arrival to completion) feeds the P99 metrics the paper
// reports; queued-but-unserved requests register as unmet demand, which
// the node accounts as vCPU wait time.
type queueServer struct {
	rng *stats.RNG
	// arrivals draws the per-tick arrival counts from rng; the rate only
	// moves when a modulated workload changes phase.
	arrivals   stats.PoissonSampler
	meanDemand float64 // core·GHz·seconds per request

	queue     []request
	latencies []float64
	served    uint64
	lastNow   time.Time
}

type request struct {
	arrived   time.Time
	remaining float64
}

func newQueueServer(rng *stats.RNG, meanDemand float64) *queueServer {
	return &queueServer{rng: rng, meanDemand: meanDemand}
}

// step injects Poisson(rate·dt) arrivals, serves the queue with the
// granted resources, and returns the usage for the tick.
func (q *queueServer) step(now time.Time, dt time.Duration, res Resources, rate float64) Usage {
	q.lastNow = now.Add(dt)
	sec := dt.Seconds()
	n := q.arrivals.Draw(q.rng, rate*sec)
	for i := 0; i < n; i++ {
		q.queue = append(q.queue, request{
			arrived:   now,
			remaining: q.rng.ExpFloat64() * q.meanDemand,
		})
	}

	// Serve the first `cores` requests concurrently, each at f GHz.
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
		// Compact completed requests (they are a prefix-interleaved set;
		// completed entries have remaining == 0).
		keep := q.queue[:0]
		for _, r := range q.queue {
			if r.remaining > 0 {
				keep = append(keep, r)
			}
		}
		q.queue = keep
	}

	// Unmet demand is every in-system request that could not get a
	// core this tick. The node clamps what counts as vCPU wait to the
	// VM's allocation; demand beyond that is guest-internal queueing.
	unmet := float64(len(q.queue)) - busyCores
	if unmet < 0 {
		unmet = 0
	}
	return Usage{Util: busyCores, Unmet: unmet}
}

// observedLatencies returns completed-request latencies plus the
// current sojourn age of every in-system request. Counting in-flight
// ages matters under starvation: a policy that never completes requests
// would otherwise report a spotless tail.
func (q *queueServer) observedLatencies() []float64 {
	out := make([]float64, 0, len(q.latencies)+len(q.queue))
	out = append(out, q.latencies...)
	for _, r := range q.queue {
		out = append(out, q.lastNow.Sub(r.arrived).Seconds())
	}
	return out
}

// p99 returns the 99th-percentile latency in seconds over completed and
// in-flight requests, 0 if none.
func (q *queueServer) p99() float64 { return stats.Percentile(q.observedLatencies(), 99) }

// meanLatency returns the mean latency over completed and in-flight
// requests.
func (q *queueServer) meanLatency() float64 { return stats.Mean(q.observedLatencies()) }

// depth returns the current number of in-system requests.
func (q *queueServer) depth() int { return len(q.queue) }
