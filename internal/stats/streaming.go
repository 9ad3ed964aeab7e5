package stats

import (
	"math"
	"sort"
)

// Welford accumulates a running mean and variance without storing
// samples (Welford's online algorithm).
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance, or 0 with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Reset discards all observations.
func (w *Welford) Reset() { *w = Welford{} }

// Window is a fixed-capacity sliding window of float64 observations
// supporting exact percentile queries. The SOL safeguards track signals
// like "P90 of α over the last 100 seconds" and "P99 vCPU wait time";
// window sizes in those uses are small (hundreds to a few thousand
// samples), so a selection per query is plenty fast and exact, which
// matters for reproducing thresholds. Queries work in a scratch buffer
// owned by the window, so the steady-state safeguard path — assessed
// every interval by every agent in a fleet — does not allocate.
type Window struct {
	buf  []float64
	next int
	full bool
	// scratch is the percentile queries' working buffer: Percentile's
	// heap of the order's top, Percentiles' sorted copy. It is grown on
	// demand, at most to capacity.
	scratch []float64
}

// NewWindow returns a sliding window holding up to capacity samples.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic("stats: Window capacity must be positive")
	}
	return &Window{buf: make([]float64, capacity)}
}

// Add appends an observation, evicting the oldest if full.
func (w *Window) Add(x float64) {
	w.buf[w.next] = x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// Len returns the number of stored observations.
func (w *Window) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Full reports whether the window has reached capacity.
func (w *Window) Full() bool { return w.full }

// Reset discards all observations.
func (w *Window) Reset() {
	w.next = 0
	w.full = false
}

// snapshot copies the stored observations into the scratch buffer and
// returns it, nil when the window is empty. The scratch is reused
// across queries — no allocation after the first call.
func (w *Window) snapshot() []float64 {
	n := w.Len()
	if n == 0 {
		return nil
	}
	if cap(w.scratch) < n {
		w.scratch = make([]float64, 0, len(w.buf))
	}
	tmp := w.scratch[:n]
	copy(tmp, w.buf[:n])
	return tmp
}

// Percentile returns the p-th percentile (p in [0, 100]) of the stored
// observations using nearest-rank interpolation, selected by
// PercentileBuf in the window's scratch. It returns 0 when the window is
// empty, and NaN for a NaN p.
func (w *Window) Percentile(p float64) float64 {
	var v float64
	v, w.scratch = PercentileBuf(w.scratch, w.buf[:w.Len()], p)
	return v
}

// Percentiles evaluates several percentile queries over one sort of
// the window, appending the results to dst in order (a nil dst
// allocates one). Safeguards that read multiple quantiles of the same
// signal — e.g. a P90 trigger alongside a P99 log line — pay for a
// single sorted copy instead of one per query.
func (w *Window) Percentiles(dst []float64, ps ...float64) []float64 {
	tmp := w.snapshot()
	sort.Float64s(tmp)
	for _, p := range ps {
		dst = append(dst, percentileSorted(tmp, p))
	}
	return dst
}

// Mean returns the mean of the stored observations, 0 when empty.
func (w *Window) Mean() float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range w.buf[:n] {
		sum += x
	}
	return sum / float64(n)
}

// percentileSorted computes a percentile over an ascending slice using
// linear interpolation between closest ranks.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	lo, hi, frac := PercentileRank(len(sorted), p)
	return Lerp(sorted[lo], sorted[hi], frac)
}

// less is the order sort.Float64s sorts by: NaN before every number.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// PercentileRank is the rank half of every percentile in this module:
// the p-th percentile (p in [0, 100]) of n > 0 ascending observations x
// is Lerp(x[lo], x[hi], frac). A caller holding its observations in a
// form other than a sorted slice selects those two order statistics
// itself and stays bit-identical to Percentile. A NaN p names no rank:
// it gets lo = hi = 0 and a NaN frac, which Lerp turns into NaN.
func PercentileRank(n int, p float64) (lo, hi int, frac float64) {
	if p != p {
		return 0, 0, p
	}
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// Lerp interpolates between the order statistics PercentileRank names:
// a itself at frac 0 (an exact rank), else a*(1-frac) + b*frac.
func Lerp(a, b, frac float64) float64 {
	if frac == 0 {
		return a
	}
	return a*(1-frac) + b*frac
}

// Percentile computes the p-th percentile of xs (not modified).
// It returns 0 for an empty slice, and NaN for a NaN p.
func Percentile(xs []float64, p float64) float64 {
	v, _ := PercentileBuf(nil, xs, p)
	return v
}

// PercentileBuf is Percentile with a caller-owned scratch, handed back
// (grown when too short) for the next call. It selects from the top of
// the order: buf holds only the len(xs)−lo values from the percentile's
// rank lo up, as a min-heap under less, so the root is the order
// statistic at lo and the lesser of the root's children the one after
// it. A high percentile of a long series — a p95 over an epoch of
// samples — fills a short buffer, and xs is never copied or modified.
func PercentileBuf(buf, xs []float64, p float64) (float64, []float64) {
	if len(xs) == 0 {
		return 0, buf[:0]
	}
	lo, hi, frac := PercentileRank(len(xs), p)
	if frac != frac {
		return frac, buf[:0] // p is NaN
	}
	k := len(xs) - lo
	heap := append(buf[:0], xs[:k]...)
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	for _, x := range xs[k:] {
		if less(heap[0], x) {
			heap[0] = x
			siftDown(heap, 0)
		}
	}
	if hi == lo {
		return heap[0], heap
	}
	next := heap[1]
	if k > 2 && less(heap[2], next) {
		next = heap[2]
	}
	return Lerp(heap[0], next, frac), heap
}

// siftDown restores the min-heap order under less below h[i].
func siftDown(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Mean returns the arithmetic mean of xs, 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
