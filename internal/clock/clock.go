// Package clock provides the time abstraction that the SOL runtime and
// the node simulator are built on.
//
// Two implementations are provided. Virtual is a deterministic
// discrete-event clock: armed timers fire in timestamp order when the
// owner calls Run or Step, and time advances instantaneously between
// events. One goroutine drives a Virtual and makes every call on it,
// so it holds no lock. Real delegates to the wall clock and the time
// package, and is the clock to share across goroutines. The SOL
// runtime is written against the Clock interface only, so the exact
// same agent code runs deterministically in simulation and in real
// time on a node.
//
// The scheduling surface is built for zero allocation: an owner embeds
// a Timer by value and arms it with a Handler, usually the owner itself
// under a named pointer conversion, so neither the timer nor its
// callback is a heap object of its own. A periodic loop is one Arm with
// a period; an irregular loop is one Arm plus Timer.Reset per re-arm.
// AfterFunc and Tick wrap a closure in a fresh Timer for tests and
// one-off samplers.
package clock

import "time"

// Clock is the minimal scheduling surface the SOL runtime needs:
// reading the current time and scheduling callbacks.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// NowNS returns the current time as nanoseconds since the clock's
	// anchor instant. It is the read the per-event path takes: lateness,
	// epoch ages and grid points are integer arithmetic on it, and a
	// time.Time is built with At only where one leaves that path.
	NowNS() int64
	// At returns the instant ns nanoseconds after the clock's anchor,
	// carrying the anchor's Location and monotonic reading. On a
	// Virtual clock At(NowNS()) == Now().
	At(ns int64) time.Time
	// Arm schedules h.Fire on t at Now()+d, and then every period after
	// the previous scheduled fire time if period > 0 (drift-free, as
	// Tick). A negative d is treated as zero. Arm binds a zero Timer to
	// this clock; a timer that is already pending is re-armed in place,
	// never queued twice, with h and period replacing the old ones. A
	// Timer stays bound to the clock that first armed it.
	Arm(t *Timer, h Handler, d, period time.Duration)
	// AfterFunc schedules f to run at Now()+d. If d <= 0 the callback
	// runs at the current time (virtual) or as soon as possible (real).
	// The returned Timer can cancel the callback with Stop or re-arm it
	// with Reset.
	AfterFunc(d time.Duration, f func()) *Timer
	// Tick schedules f to run every d, first at Now()+d. The ticker
	// re-arms itself after each callback without allocating; the period
	// is measured from the previous scheduled fire time, so ticks do
	// not drift. Stop cancels it; Reset(d2) reschedules the next fire
	// at Now()+d2 and makes d2 the new period. d must be positive.
	Tick(d time.Duration, f func()) *Timer
}

// Handler is what an armed Timer calls. Fire receives the firing
// instant in nanoseconds on the clock's timebase: on a Virtual clock it
// equals NowNS() inside the call, so a handler need not read the clock
// again.
type Handler interface {
	Fire(nowNS int64)
}

// funcHandler adapts a closure to Handler for AfterFunc and Tick. A
// func value is one pointer, so storing it in the interface does not
// allocate.
type funcHandler func()

func (f funcHandler) Fire(int64) { f() }

// Timer is a scheduled callback, one-shot or periodic. Its zero value
// is an unarmed timer: Stop and Reset on it return false and do
// nothing, and Clock.Arm binds it. Embed a Timer in the value that
// owns it and do not copy it once armed; a virtual timer's event is
// linked into its clock's heap by address.
type Timer struct {
	// Virtual backing: e lives in (at most) one slot of v's event heap.
	v *Virtual
	e event
	// Real backing, made at the first Real.Arm.
	r *realTimer
}

// Stop cancels the pending callback (and, for tickers, all future
// ones). It reports whether the call prevented a pending callback from
// firing; it returns false if the callback already ran or the timer was
// already stopped. Stopping a ticker from inside its own callback
// returns false but still prevents every later tick.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	if t.v != nil {
		return t.v.stopTimer(t)
	}
	if t.r != nil {
		return t.r.stop()
	}
	return false
}

// Reset re-arms the timer to fire at Now()+d, whether it is pending,
// already fired, or stopped, reusing the existing handler and (on a
// virtual clock) the existing heap entry — no allocation. A timer that
// was never armed has no handler to re-arm: Reset on it returns false
// and does nothing. For tickers a positive d also becomes the new
// period. It reports whether the timer was still pending. A re-armed
// event counts as a fresh insertion for the clock's (time,
// insertion-order) execution order.
func (t *Timer) Reset(d time.Duration) bool {
	if t == nil {
		return false
	}
	if t.v != nil {
		return t.v.resetTimer(t, d)
	}
	if t.r != nil {
		return t.r.reset(d)
	}
	return false
}
