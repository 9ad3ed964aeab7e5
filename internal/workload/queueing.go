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
	queue []request
	head  int
	// bins is the multiset of completed sojourns, one bin per distinct
	// value, so it grows with the sojourn range seen, not with the
	// number of requests served. It is a gap buffer: bins[:gapLo] and
	// bins[gapHi:] hold the bins ascending by ns, and the gap sits where
	// the last completion landed, since sojourns cluster. served is the
	// multiset's total count and latSum the sum of its seconds in
	// completion order — the left-to-right sum a log of every latency
	// would have taken.
	bins         []latBin
	gapLo, gapHi int
	latSum       float64
	served       uint64
	// lastNS is the end of the last tick, in nanoseconds on the node
	// clock's timebase (Step.Now + Step.Len); arrivals are stamped on
	// the same timebase, so every age is a plain difference.
	lastNS int64
}

// request is pointer-free and 16 bytes, so a deep queue is neither
// scanned by the collector nor wider than it must be. Arrival demands
// are strictly positive (ExpFloat64 > 0); remaining == 0 marks a
// request completed this tick.
type request struct {
	arrivedNS int64
	remaining float64
}

// latBin counts the completed requests whose sojourn was exactly ns.
type latBin struct {
	ns int64
	n  int
}

// newQueueServer returns a server whose FIFO is made for cores
// requests in service, so a queue no deeper than the server's cores
// never regrows it. Its owner holds it by value.
func newQueueServer(rng *stats.RNG, meanDemand float64, cores int) queueServer {
	return queueServer{rng: rng, meanDemand: meanDemand, queue: make([]request, 0, cores)}
}

// step injects Poisson(rate·dt) arrivals, serves the queue with the
// granted resources, and returns the usage for the tick.
func (q *queueServer) step(s Step, res Resources, rate float64) Usage {
	sec := s.Sec
	nowNS := s.Now
	endNS := nowNS + s.Len
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
			q.record(endNS - r.arrivedNS)
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

// sojournSeconds is a sojourn of ns nanoseconds as the float that
// time.Time.Sub(...).Seconds() yields for its two instants. It is
// monotone in ns, so ordering sojourns by ns orders their seconds.
func sojournSeconds(ns int64) float64 { return time.Duration(ns).Seconds() }

// record adds one completed request's sojourn to the multiset. The gap
// walks from where the last completion landed to where ns belongs,
// carrying each bin it passes across: a tick's completions share an end
// and leave in FIFO order, so successive sojourns are equal or near,
// and a new sojourn costs the distance walked, never a shift of the
// bins beyond it.
func (q *queueServer) record(ns int64) {
	q.latSum += sojournSeconds(ns)
	q.served++
	b, lo, hi := q.bins, q.gapLo, q.gapHi
	for lo > 0 && b[lo-1].ns >= ns {
		lo--
		hi--
		b[hi] = b[lo]
	}
	for hi < len(b) && b[hi].ns < ns {
		b[lo] = b[hi]
		lo++
		hi++
	}
	if hi < len(b) && b[hi].ns == ns {
		b[hi].n++
	} else {
		if lo == hi {
			b, hi = growGap(b, lo, hi)
			q.bins = b
		}
		hi--
		b[hi] = latBin{ns: ns, n: 1}
	}
	q.gapLo, q.gapHi = lo, hi
}

// growGap returns b in a backing array twice as long (16 at least),
// with the bins after the gap moved to its end, and where they start.
func growGap(b []latBin, lo, hi int) ([]latBin, int) {
	nb := make([]latBin, max(2*len(b), 16))
	copy(nb, b[:lo])
	tail := len(nb) - (len(b) - hi)
	copy(nb[tail:], b[hi:])
	return nb, tail
}

// p99 returns the 99th-percentile latency in seconds over completed and
// in-flight requests, 0 if none. An in-flight request counts with its
// current age: a policy that starves the server of cores would
// otherwise report a spotless tail.
func (q *queueServer) p99() float64 {
	n := int(q.served) + q.depth()
	if n == 0 {
		return 0
	}
	lo, hi, frac := stats.PercentileRank(n, 99)
	// Ranks counted from the top: the tail is a short walk down.
	above, below := q.fromTop(n-1-hi, n-1-lo)
	return stats.Lerp(sojournSeconds(below), sojournSeconds(above), frac)
}

// fromTop returns the a-th and b-th largest (0-based, a <= b) observed
// sojourns in ns, merging the bins from the top with the in-flight ages
// from the FIFO's head: arrivals only ever join the tail, so ages are
// non-increasing along it. Neither side is copied or sorted.
func (q *queueServer) fromTop(a, b int) (va, vb int64) {
	live := q.queue[q.head:]
	bins := q.bins
	i, j := len(bins)-1, 0
	va = -1
	for pos := 0; ; {
		if i == q.gapHi-1 {
			i = q.gapLo - 1
		}
		var v int64
		if j < len(live) && (i < 0 || q.lastNS-live[j].arrivedNS >= bins[i].ns) {
			v = q.lastNS - live[j].arrivedNS
			pos++
			j++
		} else {
			v = bins[i].ns
			pos += bins[i].n
			i--
		}
		if va < 0 && a < pos {
			va = v
		}
		if b < pos {
			return va, v
		}
	}
}

// meanLatency returns the mean latency over completed and in-flight
// requests: the completed sum extended by each in-flight age in FIFO
// order, as one left-to-right sum over the whole observation would be.
func (q *queueServer) meanLatency() float64 {
	live := q.queue[q.head:]
	n := int(q.served) + len(live)
	if n == 0 {
		return 0
	}
	sum := q.latSum
	for _, r := range live {
		sum += sojournSeconds(q.lastNS - r.arrivedNS)
	}
	return sum / float64(n)
}

// depth returns the current number of in-system requests.
func (q *queueServer) depth() int { return len(q.queue) - q.head }
