package stats

import (
	"math"
	"math/bits"
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

// EWMA is an exponentially weighted moving average.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1].
// Larger alpha weights recent observations more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha out of (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Add incorporates one observation.
func (e *EWMA) Add(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation has been added.
func (e *EWMA) Initialized() bool { return e.init }

// Window is a fixed-capacity sliding window of float64 observations
// supporting exact percentile queries. The SOL safeguards track signals
// like "P90 of α over the last 100 seconds" and "P99 vCPU wait time";
// window sizes in those uses are small (hundreds to a few thousand
// samples), so a selection over a copy per query is plenty fast and
// exact, which matters for reproducing thresholds. Queries work in a
// scratch buffer owned by the window, so the steady-state safeguard
// path — assessed every interval by every agent in a fleet — does not
// allocate.
type Window struct {
	buf  []float64
	next int
	full bool
	// scratch holds the copy percentile queries reorder; lazily sized
	// to capacity on first use.
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

// Cap returns the window capacity.
func (w *Window) Cap() int { return len(w.buf) }

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
	if w.scratch == nil {
		w.scratch = make([]float64, 0, len(w.buf))
	}
	tmp := w.scratch[:n]
	copy(tmp, w.buf[:n])
	return tmp
}

// Percentile returns the p-th percentile (p in [0, 100]) of the stored
// observations using nearest-rank interpolation, found by selection. It
// returns 0 when the window is empty.
func (w *Window) Percentile(p float64) float64 {
	return percentileSelect(w.snapshot(), p)
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

// Max returns the maximum stored observation, 0 when empty.
func (w *Window) Max() float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	m := w.buf[0]
	for _, x := range w.buf[1:n] {
		if x > m {
			m = x
		}
	}
	return m
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

// percentileSelect computes the p-th percentile of xs as
// percentileSorted would over xs sorted, but finds the one or two
// order statistics it needs by selection, in expected linear time. It
// reorders xs.
func percentileSelect(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi, frac := PercentileRank(len(xs), p)
	a := selectRank(xs, lo)
	if hi == lo {
		return a
	}
	// selectRank left every element after lo ordered no earlier, so
	// the next order statistic is their least.
	return Lerp(a, least(xs[lo+1:]), frac)
}

// less is the order sort.Float64s sorts by: NaN before every number.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectRank reorders xs so that xs[k] holds the value sort.Float64s
// would put at rank k, nothing before it orders after it and nothing
// after it orders before it, and returns xs[k]. It is quickselect with
// a median-of-three pivot and a three-way partition, so runs of ties
// cost one pass; a pivot sequence that keeps missing falls back to
// sorting what is left, which bounds the worst case at a sort's.
func selectRank(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 12; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo:hi])
			return xs[k]
		}
		lt, gt := partition3(xs[lo:hi], median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]))
		switch {
		case k < lo+lt:
			hi = lo + lt
		case k >= lo+gt:
			lo += gt
		default:
			return xs[k]
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[k]
}

// median3 returns the median of a, b and c under less.
func median3(a, b, c float64) float64 {
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	return b
}

// partition3 reorders xs into the elements ordering before pivot, those
// tied with it, and those ordering after it, and returns where the tied
// run starts and ends.
func partition3(xs []float64, pivot float64) (lt, gt int) {
	i, gt := 0, len(xs)
	for i < gt {
		switch x := xs[i]; {
		case less(x, pivot):
			xs[lt], xs[i] = x, xs[lt]
			lt++
			i++
		case less(pivot, x):
			gt--
			xs[i], xs[gt] = xs[gt], x
		default:
			i++
		}
	}
	return lt, gt
}

// least returns the first element of xs (len > 0) that no other orders
// before.
func least(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if less(x, m) {
			m = x
		}
	}
	return m
}

// PercentileRank is the rank half of every percentile in this module:
// the p-th percentile (p in [0, 100]) of n > 0 ascending observations x
// is Lerp(x[lo], x[hi], frac). A caller holding its observations in a
// form other than a sorted slice selects those two order statistics
// itself and stays bit-identical to Percentile.
func PercentileRank(n int, p float64) (lo, hi int, frac float64) {
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
// It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	v, _ := PercentileBuf(nil, xs, p)
	return v
}

// PercentileBuf is Percentile with a caller-owned scratch: xs is copied
// into buf (grown when too short), the percentile selected there, and
// the buffer handed back for the next call, so a caller that queries
// every epoch allocates only until the buffer has seen its largest
// input.
func PercentileBuf(buf, xs []float64, p float64) (float64, []float64) {
	buf = append(buf[:0], xs...)
	return percentileSelect(buf, p), buf
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
