package clock

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// oracleClock is the scheduling surface the differential test drives,
// in integer nanoseconds and timer ids so the engine and the reference
// below take the same program. A callback receives the instant its
// clock says it fires at.
type oracleClock interface {
	now() int64
	afterFunc(d int64, f func(now int64)) int
	tick(d int64, f func(now int64)) int
	// timer adds a zero, never-armed timer; arm arms any timer in any
	// state with a new callback, delay and period (0: one-shot).
	timer() int
	arm(id int, d, period int64, f func(now int64))
	stop(id int) bool
	reset(id int, d int64) bool
	pending() int
	runFor(d int64)
	step() bool
}

// listClock is the reference: a naive clock that keeps its pending
// timers in a slice sorted by (when, seq) and restates the engine's
// contract in the most direct terms. A timer firing is taken off the
// list before its callback runs; afterwards, unless the callback
// stopped or reset it, a ticker goes back on one period after its fire
// time with a fresh sequence number. A timer that was never armed is
// not touched by Stop or Reset; arming a queued timer moves it, so no
// timer is ever queued twice.
type listClock struct {
	nowNS  int64
	seq    uint64
	timers []*listTimer
	queue  []*listTimer
	firing *listTimer
}

type listTimer struct {
	when   int64
	seq    uint64
	period int64
	armed  bool
	queued bool
	fn     func(now int64)
}

func (c *listClock) now() int64 { return c.nowNS }

func (c *listClock) timer() int {
	c.timers = append(c.timers, &listTimer{})
	return len(c.timers) - 1
}

func (c *listClock) arm(id int, d, period int64, f func(now int64)) {
	t := c.timers[id]
	c.unqueue(t)
	t.armed, t.period, t.fn = true, max(period, 0), f
	c.enqueue(t, c.nowNS+max(d, 0))
}

func (c *listClock) afterFunc(d int64, f func(now int64)) int {
	id := c.timer()
	c.arm(id, d, 0, f)
	return id
}

func (c *listClock) tick(d int64, f func(now int64)) int {
	id := c.timer()
	c.arm(id, d, d, f)
	return id
}

func (c *listClock) enqueue(t *listTimer, when int64) {
	t.when, t.seq, t.queued = when, c.seq, true
	c.seq++
	i := 0
	for i < len(c.queue) && (c.queue[i].when < when || c.queue[i].when == when && c.queue[i].seq < t.seq) {
		i++
	}
	c.queue = append(c.queue[:i], append([]*listTimer{t}, c.queue[i:]...)...)
}

func (c *listClock) unqueue(t *listTimer) bool {
	if c.firing == t {
		c.firing = nil
	}
	if !t.queued {
		return false
	}
	for i, q := range c.queue {
		if q == t {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	t.queued = false
	return true
}

func (c *listClock) stop(id int) bool { return c.unqueue(c.timers[id]) }

func (c *listClock) reset(id int, d int64) bool {
	t := c.timers[id]
	if !t.armed {
		return false
	}
	was := c.unqueue(t)
	d = max(d, 0)
	if t.period > 0 && d > 0 {
		t.period = d
	}
	c.enqueue(t, c.nowNS+d)
	return was
}

func (c *listClock) pending() int { return len(c.queue) }

func (c *listClock) fire() {
	t := c.queue[0]
	c.queue = c.queue[1:]
	t.queued = false
	c.nowNS = max(c.nowNS, t.when)
	c.firing = t
	t.fn(c.nowNS)
	if c.firing == t {
		c.firing = nil
		if t.period > 0 {
			c.enqueue(t, t.when+t.period)
		}
	}
}

func (c *listClock) runFor(d int64) {
	deadline := c.nowNS + d
	for len(c.queue) > 0 && c.queue[0].when <= deadline {
		c.fire()
	}
	c.nowNS = max(c.nowNS, deadline)
}

func (c *listClock) step() bool {
	if len(c.queue) == 0 {
		return false
	}
	c.fire()
	return true
}

// engineClock adapts a Virtual to oracleClock. Every other timer it
// creates is caller-owned — a zero Timer armed with Arm, whose handler
// passes on the instant the engine hands it — and the rest are
// AfterFunc and Tick closures, which read the clock. Either way the
// instant a callback logs must match the reference, and the trace line
// it lands on is stamped with Now() as well.
type engineClock struct {
	v      *Virtual
	timers []*Timer
}

// fireFunc is a test Handler that passes on the instant it is given.
type fireFunc func(now int64)

func (f fireFunc) Fire(now int64) { f(now) }

func (c *engineClock) now() int64 { return int64(c.v.Now().Sub(epoch)) }
func (c *engineClock) timer() int {
	c.timers = append(c.timers, new(Timer))
	return len(c.timers) - 1
}
func (c *engineClock) arm(id int, d, period int64, f func(now int64)) {
	c.v.Arm(c.timers[id], fireFunc(f), time.Duration(d), time.Duration(period))
}
func (c *engineClock) add(d, period int64, f func(now int64)) int {
	if len(c.timers)%2 == 0 {
		id := c.timer()
		c.arm(id, d, period, f)
		return id
	}
	read := func() { f(c.v.NowNS()) }
	if period > 0 {
		c.timers = append(c.timers, c.v.Tick(time.Duration(period), read))
	} else {
		c.timers = append(c.timers, c.v.AfterFunc(time.Duration(d), read))
	}
	return len(c.timers) - 1
}
func (c *engineClock) afterFunc(d int64, f func(now int64)) int { return c.add(d, 0, f) }
func (c *engineClock) tick(d int64, f func(now int64)) int      { return c.add(d, d, f) }
func (c *engineClock) stop(id int) bool                         { return c.timers[id].Stop() }
func (c *engineClock) reset(id int, d int64) bool               { return c.timers[id].Reset(time.Duration(d)) }
func (c *engineClock) pending() int                             { return c.v.Len() }
func (c *engineClock) runFor(d int64)                           { c.v.RunFor(time.Duration(d)) }
func (c *engineClock) step() bool                               { return c.v.Step() }

// randomSchedule runs one seeded program on c and returns its trace:
// every firing with the instant it was handed and the pending count its
// callback sees, and every Stop/Reset result. Callbacks and the driver
// between runs create one-shots, tickers and zero timers, and arm, stop
// and reset timers chosen at random — the firing one, pending ones and
// never-armed ones included — with delays drawn from a coarse grid so
// that same-instant ties are common, zero and negative delays included. A callback's choices come from the program's own
// generator, so two clocks that fire in the same order run the same
// program; the first divergence shows in the trace.
func randomSchedule(seed int64, c oracleClock) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%d ", c.now())+fmt.Sprintf(format, args...))
	}
	const ms = int64(time.Millisecond)
	delays := []int64{-ms, 0, ms, ms, 2 * ms, 3 * ms, 5 * ms, 8 * ms}
	periods := []int64{ms, 2 * ms, 3 * ms, 5 * ms}
	budget := 1500 // scheduling actions; past it callbacks only observe
	ids := 0

	var act func()
	var body func(id int) func(now int64)
	body = func(id int) func(now int64) {
		return func(now int64) {
			logf("fire %d at %d pending %d", id, now, c.pending())
			for n := rng.Intn(4); n > 0; n-- {
				act()
			}
		}
	}
	act = func() {
		if budget == 0 {
			return
		}
		budget--
		switch r := rng.Intn(12); {
		case r < 2 && ids < 60:
			ids++
			logf("after %d", c.afterFunc(delays[rng.Intn(len(delays))], body(ids-1)))
		case r < 3 && ids < 60:
			ids++
			logf("tick %d", c.tick(periods[rng.Intn(len(periods))], body(ids-1)))
		case r < 4 && ids < 60:
			ids++
			logf("timer %d", c.timer())
		case r < 6 && ids > 0:
			id := rng.Intn(ids)
			d := delays[rng.Intn(len(delays))]
			var period int64
			if rng.Intn(2) == 0 {
				period = periods[rng.Intn(len(periods))]
			}
			c.arm(id, d, period, body(id))
			logf("arm %d %d %d", id, d, period)
		case r < 8 && ids > 0:
			id := rng.Intn(ids)
			d := delays[rng.Intn(len(delays))]
			logf("reset %d %d = %v", id, d, c.reset(id, d))
		case r < 10 && ids > 0:
			id := rng.Intn(ids)
			logf("stop %d = %v", id, c.stop(id))
		default:
			logf("pending %d", c.pending())
		}
	}
	for i := 0; i < 8; i++ {
		act()
	}
	for round := 0; round < 40; round++ {
		if rng.Intn(3) == 0 {
			for n := rng.Intn(5); n > 0; n-- {
				logf("step %v", c.step())
			}
		} else {
			c.runFor(int64(rng.Intn(6)) * ms)
		}
		for n := rng.Intn(3); n > 0; n-- {
			act()
		}
	}
	return trace
}

// TestEngineMatchesSortedListClock is the differential oracle for the
// engine: over seeded random schedules — Arm, Tick, AfterFunc, Reset
// and Stop issued from inside callbacks, on the firing timer itself
// among others; Arm of a pending timer; Stop and Reset of a zero one;
// same-instant FIFO; ticker period changes through Reset and Arm;
// pending counts read inside callbacks — the engine, locked and
// single-driver, must produce the naive sorted-list clock's trace
// exactly: firing order, timestamps and the instants handlers are
// handed, pending counts and every Stop and Reset result.
func TestEngineMatchesSortedListClock(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		want := randomSchedule(seed, &listClock{})
		if len(want) < 50 {
			t.Fatalf("seed %d: trace of %d lines is too short to test anything", seed, len(want))
		}
		for _, mk := range []func(time.Time) *Virtual{NewVirtual, NewVirtualSingle} {
			got := randomSchedule(seed, &engineClock{v: mk(epoch)})
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					lo := max(0, i-5)
					t.Fatalf("seed %d: engine diverges from the sorted-list clock at line %d\nreference:\n  %s\nengine:\n  %s",
						seed, i, strings.Join(want[lo:i+1], "\n  "), strings.Join(got[lo:min(i+1, len(got))], "\n  "))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: engine trace has %d lines, reference %d", seed, len(got), len(want))
			}
		}
	}
}

// TestNestedDrivePanics pins the engine's answer to a callback that
// drives its own clock: every driver panics, the clock is left
// consistent, and driving resumes normally from the outside.
func TestNestedDrivePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drive func(v *Virtual)
	}{
		{"Step", func(v *Virtual) { v.Step() }},
		{"Run", func(v *Virtual) { v.Run(v.Now().Add(time.Second)) }},
		{"RunFor", func(v *Virtual) { v.RunFor(time.Second) }},
		{"RunUntilIdle", func(v *Virtual) { v.RunUntilIdle(10) }},
	} {
		for _, mk := range []func(time.Time) *Virtual{NewVirtual, NewVirtualSingle} {
			v := mk(epoch)
			panicked, count := 0, 0
			v.Tick(time.Millisecond, func() {
				count++
				defer func() {
					if recover() != nil {
						panicked++
					}
				}()
				tc.drive(v)
			})
			v.AfterFunc(time.Millisecond, func() {})
			v.RunFor(3 * time.Millisecond)
			if panicked != 3 || count != 3 {
				t.Fatalf("%s: %d of %d nested drives panicked, want 3 of 3", tc.name, panicked, count)
			}
			if n := v.Len(); n != 1 {
				t.Fatalf("%s: %d events pending after the run, want the ticker alone", tc.name, n)
			}
		}
	}
}

// TestFiringEventNotPending: while a callback runs, its own event is
// not pending — Len and String leave it out, whether it is a one-shot
// or a ticker — until the callback re-arms it.
func TestFiringEventNotPending(t *testing.T) {
	v := NewVirtualSingle(epoch)
	var lens []int
	var strs []string
	var one *Timer
	one = v.AfterFunc(time.Millisecond, func() {
		lens = append(lens, v.Len())
		strs = append(strs, v.String())
		one.Reset(time.Millisecond)
		lens = append(lens, v.Len())
		one.Stop()
	})
	v.Tick(5*time.Millisecond, func() { lens = append(lens, v.Len()) })
	v.RunFor(5 * time.Millisecond)
	if want := "[1 2 0]"; fmt.Sprint(lens) != want {
		t.Fatalf("Len inside callbacks = %v, want %s", lens, want)
	}
	if !strings.Contains(strs[0], "1 pending") {
		t.Fatalf("String inside a callback = %q, want the firing event left out", strs[0])
	}
}
