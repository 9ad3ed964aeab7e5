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

	// queue[head:] is the in-system FIFO, oldest first. A tick costs
	// what it serves, not what it holds: service only touches the first
	// `cores` live entries and retires finished ones by advancing head;
	// the spent slots before head are reclaimed by push.
	queue     []request
	head      int
	latencies []float64
	// observed is the scratch p99 and meanLatency build their input in.
	observed []float64
	served   uint64
	// lastNS is the end of the last tick, in Unix nanoseconds.
	lastNS int64
	// dt and sec cache dt.Seconds(): the tick length is fixed per node.
	dt  time.Duration
	sec float64
}

// request is pointer-free and 16 bytes, so a deep queue is neither
// scanned by the collector nor wider than it must be. Arrival demands
// are strictly positive (ExpFloat64 > 0); remaining == 0 marks a
// request completed this tick.
type request struct {
	arrivedNS int64
	remaining float64
}

func newQueueServer(rng *stats.RNG, meanDemand float64) *queueServer {
	return &queueServer{rng: rng, meanDemand: meanDemand}
}

// step injects Poisson(rate·dt) arrivals, serves the queue with the
// granted resources, and returns the usage for the tick.
func (q *queueServer) step(now time.Time, dt time.Duration, res Resources, rate float64) Usage {
	if dt != q.dt {
		q.dt, q.sec = dt, dt.Seconds()
	}
	sec := q.sec
	nowNS := now.UnixNano()
	endNS := nowNS + int64(dt)
	q.lastNS = endNS
	n := q.arrivals.Draw(q.rng, rate*sec)
	for i := 0; i < n; i++ {
		q.push(request{arrivedNS: nowNS, remaining: q.rng.ExpFloat64() * q.meanDemand})
	}

	// Serve the first `cores` requests concurrently, each at f GHz.
	live := q.queue[q.head:]
	cores := int(res.Cores)
	if cores > len(live) {
		cores = len(live)
	}
	perCore := res.FreqGHz * sec
	busyCores := 0.0
	finished := 0
	for i := 0; i < cores; i++ {
		r := &live[i]
		if r.remaining <= perCore {
			if perCore > 0 {
				busyCores += r.remaining / perCore
			}
			q.latencies = append(q.latencies, latencySeconds(r.arrivedNS, endNS))
			q.served++
			r.remaining = 0
			finished++
		} else {
			r.remaining -= perCore
			busyCores++
		}
	}
	if finished > 0 {
		// Completed requests sit only in the served prefix: slide its
		// survivors up against the unserved rest, in order, and retire
		// the freed slots.
		w := cores
		for i := cores - 1; i >= 0; i-- {
			if live[i].remaining > 0 {
				w--
				live[w] = live[i]
			}
		}
		q.head += w
		if q.head == len(q.queue) {
			q.queue, q.head = q.queue[:0], 0
		}
	}

	// Unmet demand is every in-system request that could not get a
	// core this tick. The node clamps what counts as vCPU wait to the
	// VM's allocation; demand beyond that is guest-internal queueing.
	unmet := float64(q.depth()) - busyCores
	if unmet < 0 {
		unmet = 0
	}
	return Usage{Util: busyCores, Unmet: unmet}
}

// push appends r. A full backing array with at least an eighth of it
// spent is reclaimed in place — at most eight request copies per
// retired request, and less spent than the slack append's growth
// leaves, so a queue of stable depth never regrows. Otherwise the
// append regrows from the live window alone.
func (q *queueServer) push(r request) {
	if len(q.queue) == cap(q.queue) && q.head > 0 {
		live := q.queue[q.head:]
		if 8*q.head >= cap(q.queue) {
			live = q.queue[:copy(q.queue, live)]
		}
		q.queue, q.head = live, 0
	}
	q.queue = append(q.queue, r)
}

// latencySeconds is the sojourn from arrival to end, the float that
// time.Time.Sub(...).Seconds() yields for the same two instants.
func latencySeconds(arrivedNS, endNS int64) float64 {
	return time.Duration(endNS - arrivedNS).Seconds()
}

// observedLatencies rebuilds q.observed: completed-request latencies
// plus the current sojourn age of every in-system request. Counting
// in-flight ages matters under starvation: a policy that never
// completes requests would otherwise report a spotless tail.
func (q *queueServer) observedLatencies() []float64 {
	if n := len(q.latencies) + q.depth(); cap(q.observed) < n {
		q.observed = make([]float64, 0, n)
	}
	q.observed = append(q.observed[:0], q.latencies...)
	for _, r := range q.queue[q.head:] {
		q.observed = append(q.observed, latencySeconds(r.arrivedNS, q.lastNS))
	}
	return q.observed
}

// p99 returns the 99th-percentile latency in seconds over completed and
// in-flight requests, 0 if none.
func (q *queueServer) p99() float64 { return stats.PercentileSort(q.observedLatencies(), 99) }

// meanLatency returns the mean latency over completed and in-flight
// requests.
func (q *queueServer) meanLatency() float64 { return stats.Mean(q.observedLatencies()) }

// depth returns the current number of in-system requests.
func (q *queueServer) depth() int { return len(q.queue) - q.head }
