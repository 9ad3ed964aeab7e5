package clock

import "time"

// Real is a Clock backed by the wall clock. Callbacks run on their own
// goroutines, exactly as with time.AfterFunc. It is the clock used by
// cmd/solagent when running against a live node. Create one with
// NewReal: its nanosecond timebase is anchored at construction.
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

// AfterFunc schedules f on the wall clock via time.AfterFunc.
func (*Real) AfterFunc(d time.Duration, f func()) *Timer {
	if f == nil {
		panic("clock: AfterFunc with nil callback")
	}
	return &Timer{rt: time.AfterFunc(d, f)}
}

// Tick schedules f every d on the wall clock, re-arming one underlying
// time.Timer after each callback. It honors the interface's drift-free
// contract: each re-arm targets the previous scheduled fire time plus
// the period, so callback latency does not accumulate (a callback
// slower than the period makes the next tick fire immediately, catching
// up — the wall-clock analogue of the virtual ticker firing at every
// grid point). As with time.AfterFunc, callbacks run on their own
// goroutines; Stop prevents all future ticks but may not interrupt one
// already in flight.
func (*Real) Tick(d time.Duration, f func()) *Timer {
	if f == nil {
		panic("clock: Tick with nil callback")
	}
	if d <= 0 {
		panic("clock: Tick with non-positive interval")
	}
	t := &Timer{rperiod: d}
	// The callback re-arms through t.rt; hold rmu across creation so a
	// near-immediate first fire cannot observe t.rt unassigned.
	t.rmu.Lock()
	t.rnext = time.Now().Add(d)
	t.rt = time.AfterFunc(d, func() {
		if t.rstop.Load() {
			return
		}
		f()
		t.rmu.Lock()
		if !t.rstop.Load() {
			t.rnext = t.rnext.Add(t.rperiod)
			t.rt.Reset(time.Until(t.rnext))
		}
		t.rmu.Unlock()
	})
	t.rmu.Unlock()
	return t
}
