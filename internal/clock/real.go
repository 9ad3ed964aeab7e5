package clock

import (
	"sync"
	"time"
)

// Real is a Clock backed by the wall clock. Callbacks run on their own
// goroutines, exactly as with time.AfterFunc. It is the clock for an
// agent running against a live node (sol.NewRealClock); every command
// and experiment in this repository simulates on a Virtual clock
// instead. Create one with NewReal: its nanosecond timebase is anchored
// at construction.
type Real struct {
	anchor time.Time // carries the monotonic reading NowNS counts from
}

// NewReal returns the wall-clock Clock, anchored at the current instant.
func NewReal() *Real { return &Real{anchor: time.Now()} }

// Now returns the current wall-clock time.
func (*Real) Now() time.Time { return time.Now() }

// NowNS returns the nanoseconds elapsed since the clock's anchor, read
// from the monotonic clock (time.Since subtracts monotonic readings).
// It must not be time.Now().UnixNano(): that is the wall clock, which
// NTP or an operator can step backwards or forwards at any moment, and
// a step would surface in the runtime as a burst of schedule lateness
// or a negative epoch age. The monotonic reading only moves forward.
func (r *Real) NowNS() int64 { return int64(time.Since(r.anchor)) }

// At returns the anchor plus ns. The result carries the anchor's
// Location and a monotonic reading, so comparing it with time.Now()
// or with another At value is a monotonic comparison.
func (r *Real) At(ns int64) time.Time { return r.anchor.Add(time.Duration(ns)) }

// Arm implements Clock.Arm on the wall clock. The first Arm of a timer
// makes its Real backing: one time.Timer, re-armed in place by every
// later Arm, Reset and ticker period. A periodic timer honors the
// interface's drift-free contract: each re-arm targets the previous
// scheduled fire time plus the period, so handler latency does not
// accumulate (a handler slower than the period makes the next tick fire
// immediately, catching up — the wall-clock analogue of the virtual
// ticker firing at every grid point). As with time.AfterFunc, handlers
// run on their own goroutines; Stop prevents every later firing but may
// not interrupt one already in flight.
func (c *Real) Arm(t *Timer, h Handler, d, period time.Duration) {
	if h == nil {
		panic("clock: Arm with nil handler")
	}
	if t.v != nil {
		panic("clock: Arm of a timer bound to another clock")
	}
	if t.r == nil {
		t.r = &realTimer{clk: c}
	} else if t.r.clk != c {
		panic("clock: Arm of a timer bound to another clock")
	}
	rt := t.r
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.h = h
	rt.period = max(period, 0)
	rt.schedule(d)
}

// AfterFunc schedules f on the wall clock on a fresh Timer.
func (c *Real) AfterFunc(d time.Duration, f func()) *Timer {
	if f == nil {
		panic("clock: AfterFunc with nil callback")
	}
	t := new(Timer)
	c.Arm(t, funcHandler(f), d, 0)
	return t
}

// Tick schedules f every d on the wall clock on a fresh Timer.
func (c *Real) Tick(d time.Duration, f func()) *Timer {
	if f == nil {
		panic("clock: Tick with nil callback")
	}
	if d <= 0 {
		panic("clock: Tick with non-positive interval")
	}
	t := new(Timer)
	c.Arm(t, funcHandler(f), d, d)
	return t
}

// realTimer is a Timer's wall-clock backing. mu guards every field but
// clk; a handler runs with it released.
type realTimer struct {
	clk    *Real
	mu     sync.Mutex
	t      *time.Timer // made by the first schedule, then only re-armed
	h      Handler
	period time.Duration // >0: ticker period
	// next is the scheduled instant of the pending firing. The runtime
	// never fires a time.Timer before its deadline, so a firing that
	// finds time.Now() before next is a stale one from an earlier
	// arming that Stop or Reset could not recall.
	next    time.Time
	pending bool
	// gen counts Arm, Reset and Stop calls, so a firing can tell
	// whether its handler re-armed or stopped the timer.
	gen uint64
}

// schedule makes the timer pending at now+d. Callers hold mu.
func (rt *realTimer) schedule(d time.Duration) {
	d = max(d, 0)
	rt.gen++
	rt.pending = true
	rt.next = time.Now().Add(d)
	if rt.t == nil {
		rt.t = time.AfterFunc(d, rt.fire)
	} else {
		rt.t.Reset(d)
	}
}

func (rt *realTimer) stop() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.gen++
	was := rt.pending
	rt.pending = false
	rt.t.Stop()
	return was
}

func (rt *realTimer) reset(d time.Duration) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	was := rt.pending
	if rt.period > 0 && d > 0 {
		rt.period = d
	}
	rt.schedule(d)
	return was
}

// fire runs on the time.Timer's goroutine. It claims the pending
// firing, calls the handler, and then — unless the handler re-armed or
// stopped the timer, which it sees by gen — moves a ticker one period
// on from its scheduled instant.
func (rt *realTimer) fire() {
	rt.mu.Lock()
	if !rt.pending || time.Now().Before(rt.next) {
		rt.mu.Unlock()
		return
	}
	rt.pending = false
	gen, h := rt.gen, rt.h
	rt.mu.Unlock()
	h.Fire(rt.clk.NowNS())
	rt.mu.Lock()
	if rt.gen == gen && rt.period > 0 {
		rt.pending = true
		rt.next = rt.next.Add(rt.period)
		rt.t.Reset(time.Until(rt.next))
	}
	rt.mu.Unlock()
}
