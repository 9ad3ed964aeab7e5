// Package clock provides the time abstraction that the SOL runtime and
// the node simulator are built on.
//
// Two implementations are provided. Virtual is a deterministic
// discrete-event clock: callbacks scheduled with AfterFunc or Tick
// execute in timestamp order when the owner calls Run or Step, and time
// advances instantaneously between events. Real delegates to the wall
// clock and the time package. The SOL runtime is written against the
// Clock interface only, so the exact same agent code runs
// deterministically in simulation and in real time on a node.
//
// The scheduling surface is built for steady-state zero allocation:
// a periodic loop is one Tick call (one timer, one closure, reused for
// the life of the ticker), and an irregular loop is one AfterFunc plus
// Timer.Reset per re-arm — neither allocates after setup.
package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the minimal scheduling surface the SOL runtime needs:
// reading the current time and scheduling callbacks.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
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

// Timer is a handle to a scheduled callback, one-shot (AfterFunc) or
// periodic (Tick). A Timer is backed either by an event on a Virtual
// clock's heap or by a time.Timer on the wall clock.
type Timer struct {
	// Virtual backing: e lives in (at most) one slot of v's event heap.
	v *Virtual
	e event

	// Real backing.
	rmu     sync.Mutex // guards rt/rnext for ticker re-arm
	rt      *time.Timer
	rperiod time.Duration // ticker period; 0 for one-shot
	rnext   time.Time     // real-backed ticker re-arm needs the wall-clock fire time
	rstop   atomic.Bool   // suppresses ticker re-arm after Stop
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
	if t.rt != nil {
		t.rstop.Store(true)
		t.rmu.Lock()
		defer t.rmu.Unlock()
		return t.rt.Stop()
	}
	return false
}

// Reset re-arms the timer to fire at Now()+d, whether it is pending,
// already fired, or stopped, reusing the existing callback and (on a
// virtual clock) the existing heap entry — no allocation. For tickers a
// positive d also becomes the new period. It reports whether the timer
// was still pending. A re-armed event counts as a fresh insertion for
// the clock's (time, insertion-order) execution order.
func (t *Timer) Reset(d time.Duration) bool {
	if t == nil {
		return false
	}
	if t.v != nil {
		return t.v.resetTimer(t, d)
	}
	if t.rt != nil {
		t.rstop.Store(false)
		t.rmu.Lock()
		defer t.rmu.Unlock()
		if t.rperiod > 0 {
			if d > 0 {
				t.rperiod = d
			}
			t.rnext = time.Now().Add(d)
		}
		return t.rt.Reset(d)
	}
	return false
}
