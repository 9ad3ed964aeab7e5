package clock

import (
	"fmt"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event clock. Timers armed with
// Arm (or made by AfterFunc and Tick) fire in (time, insertion-order)
// order when the owner calls Run, RunFor, RunUntilIdle, or Step.
// Callbacks run on the goroutine that drives the clock; they may
// schedule further events.
//
// Internally the clock keeps time as int64 nanoseconds since its start
// instant and orders events on a hand-rolled binary heap keyed by
// (when, seq); time.Time values exist only at the API boundary. This
// keeps the per-event hot path free of 24-byte time.Time comparisons,
// monotonic-clock handling, and container/heap interface calls.
//
// A clock from NewVirtual is safe for concurrent use, but
// deterministic execution is only guaranteed when a single goroutine
// drives it, which is how every experiment in this repository runs.
// NewVirtualSingle returns a clock that exploits that: it elides the
// mutex entirely and must only be touched from the driving goroutine.
type Virtual struct {
	mu     sync.Mutex
	single bool      // lock-elided single-driver mode; see NewVirtualSingle
	start  time.Time // the epoch anchor; everything else is int64 ns since it
	now    int64     // ns since start
	seq    uint64
	heap   []*event
	// running is set while a callback runs, and firing says that its
	// event is the root until the callback stops or re-arms it. The
	// firing event keeps its heap slot — the root, since everything
	// scheduled meanwhile orders after it, so nothing else can reach
	// index 0 — and re-arming it is one sift from where it stands, but
	// it is not pending and Len does not count it. A flag, not a
	// pointer, so firing costs no write barrier.
	running bool
	firing  bool
	// fired counts callbacks executed, for diagnostics and tests.
	fired uint64
}

// event is one scheduled callback, keyed by (when, seq). It is
// embedded in its Timer, which its owner embeds in turn, so a timer's
// whole lifecycle — arm, fire, re-arm, stop — touches only the owner's
// memory and the clock's heap slice.
type event struct {
	when   int64 // ns since clock start
	seq    uint64
	index  int   // heap position; -1 while not queued (once bound to a clock)
	period int64 // >0: ticker interval in ns, re-armed after each fire
	h      Handler
}

// heapCap is the event heap's initial capacity: room for a standard
// fleet node's timers (node tick, memsim tick, each agent's collect,
// actuation and assessment timers) in the one allocation a clock's
// heap makes, where growing by append would take five.
const heapCap = 16

// NewVirtual returns a Virtual clock whose current time is start. It is
// safe for concurrent use (callbacks still run only on the driving
// goroutine).
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{start: start, heap: make([]*event, 0, heapCap)}
}

// NewVirtualSingle returns a Virtual clock in single-driver mode: the
// internal mutex is elided, so every method — scheduling, driving, and
// Timer Stop/Reset — must be called from one goroutine. This is the
// mode the fleet simulator and the experiments use (each node owns a
// private clock driven by one worker); the locked NewVirtual remains
// for callers that share a clock across goroutines, e.g. real-clock
// -race tests of code paths that also run in simulation.
func NewVirtualSingle(start time.Time) *Virtual {
	return &Virtual{start: start, single: true, heap: make([]*event, 0, heapCap)}
}

func (v *Virtual) lock() {
	if !v.single {
		v.mu.Lock()
	}
}

func (v *Virtual) unlock() {
	if !v.single {
		v.mu.Unlock()
	}
}

// toNS converts an absolute time to the clock's internal timebase.
func (v *Virtual) toNS(t time.Time) int64 { return t.Sub(v.start).Nanoseconds() }

// At converts the internal timebase back to an absolute time: the
// start instant plus ns, so the result keeps start's Location and
// monotonic reading.
func (v *Virtual) At(ns int64) time.Time { return v.start.Add(time.Duration(ns)) }

// Now returns the clock's current virtual time.
func (v *Virtual) Now() time.Time { return v.At(v.NowNS()) }

// NowNS returns the clock's current virtual time as nanoseconds since
// its start instant: the internal reading itself, no conversion.
func (v *Virtual) NowNS() int64 {
	v.lock()
	ns := v.now
	v.unlock()
	return ns
}

// Arm implements Clock.Arm. The timer's event is its heap entry, so
// arming allocates nothing once the heap has room. A periodic timer is
// re-armed in place after each firing at the previous fire time plus
// the period (drift-free), with a fresh sequence number, exactly as if
// the handler had re-scheduled itself as its last action.
func (v *Virtual) Arm(t *Timer, h Handler, d, period time.Duration) {
	if h == nil {
		panic("clock: Arm with nil handler")
	}
	if t.v != v {
		if t.v != nil || t.r != nil {
			panic("clock: Arm of a timer bound to another clock")
		}
		t.v = v
		t.e.index = -1
	}
	v.lock()
	e := &t.e
	e.h = h
	e.period = max(int64(period), 0)
	v.rearm(e, max(int64(d), 0))
	v.unlock()
}

// AfterFunc schedules f at Now()+d on a fresh Timer. Negative d is
// treated as zero.
func (v *Virtual) AfterFunc(d time.Duration, f func()) *Timer {
	if f == nil {
		panic("clock: AfterFunc with nil callback")
	}
	t := new(Timer)
	v.Arm(t, funcHandler(f), d, 0)
	return t
}

// Tick schedules f every d, first at Now()+d, on a fresh Timer.
func (v *Virtual) Tick(d time.Duration, f func()) *Timer {
	if f == nil {
		panic("clock: Tick with nil callback")
	}
	if d <= 0 {
		panic("clock: Tick with non-positive interval")
	}
	t := new(Timer)
	v.Arm(t, funcHandler(f), d, d)
	return t
}

// rearm queues e to fire d nanoseconds from now with a fresh sequence
// number and reports whether it was pending. A queued event — pending,
// or firing right now — is sifted from its heap slot to its new
// position, so it is never queued twice; an idle one is pushed.
// Callers hold the lock.
func (v *Virtual) rearm(e *event, d int64) bool {
	pending := v.claim(e)
	e.when = v.now + d
	e.seq = v.seq
	v.seq++
	if e.index >= 0 {
		v.fix(e.index)
	} else {
		v.push(e)
	}
	return pending
}

// claim reports whether e is pending: queued and not the event whose
// callback is running. A firing event is released to the caller, who
// stops or re-arms it, so the engine leaves it alone after the
// callback. Callers hold the lock.
func (v *Virtual) claim(e *event) bool {
	if v.firing && e.index == 0 {
		v.firing = false
		return false
	}
	return e.index >= 0
}

// stopTimer implements Timer.Stop for virtual timers.
func (v *Virtual) stopTimer(t *Timer) bool {
	v.lock()
	e := &t.e
	pending := v.claim(e)
	if e.index >= 0 {
		v.removeAt(e.index)
	}
	v.unlock()
	return pending
}

// resetTimer implements Timer.Reset for virtual timers: it re-arms the
// event in place with a fresh sequence number, so a Reset orders
// exactly like a brand-new Arm at the same instant.
func (v *Virtual) resetTimer(t *Timer, d time.Duration) bool {
	v.lock()
	e := &t.e
	if e.period > 0 && d > 0 {
		e.period = int64(d)
	}
	pending := v.rearm(e, max(int64(d), 0))
	v.unlock()
	return pending
}

// Len returns the number of pending events; a callback's own event is
// not pending while it runs.
func (v *Virtual) Len() int {
	v.lock()
	n := v.pending()
	v.unlock()
	return n
}

// pending counts the queued events that are not firing. Callers hold
// the lock.
func (v *Virtual) pending() int {
	if v.firing {
		return len(v.heap) - 1
	}
	return len(v.heap)
}

// Fired returns the number of callbacks executed so far.
func (v *Virtual) Fired() uint64 {
	v.lock()
	n := v.fired
	v.unlock()
	return n
}

// Step executes the single earliest pending event, advancing the clock
// to its timestamp. It reports whether an event was executed.
//
// A callback that drives its own clock (Run, RunFor, RunUntilIdle or
// Step) panics: its event still holds the root of the heap, and the
// (time, insertion-order) contract has no answer for a nested drive.
func (v *Virtual) Step() bool {
	v.lock()
	v.enter()
	if len(v.heap) == 0 {
		v.unlock()
		return false
	}
	v.fire()
	v.unlock()
	return true
}

// Run executes events in order until the clock reaches deadline. Events
// scheduled exactly at the deadline are executed; the clock's time is
// set to deadline when Run returns. It returns the number of events
// executed. Like Step, it panics when called from a callback.
func (v *Virtual) Run(deadline time.Time) int {
	v.lock()
	v.enter()
	dl := v.toNS(deadline)
	n := 0
	for len(v.heap) > 0 && v.heap[0].when <= dl {
		v.fire()
		n++
	}
	if dl > v.now {
		v.now = dl
	}
	v.unlock()
	return n
}

// enter refuses to drive the clock from inside a callback. Callers hold
// the lock.
func (v *Virtual) enter() {
	if v.running {
		v.unlock()
		panic("clock: Run or Step called from a callback")
	}
}

// fire calls the root event's handler with the firing instant, the
// event left in its heap slot, then retires it in place: a ticker the
// handler did not stop or re-arm moves one period on with a fresh
// sequence number, as if it had re-scheduled itself as its last action
// — one sift down from the root; an untouched one-shot is removed.
// Callers hold the lock, which is released while the handler runs.
func (v *Virtual) fire() {
	e := v.heap[0]
	if e.when > v.now {
		v.now = e.when
	}
	now, h := v.now, e.h
	v.fired++
	v.running, v.firing = true, true
	v.unlock()
	h.Fire(now)
	v.lock()
	v.running = false
	if !v.firing {
		return // the callback stopped or reset its own event
	}
	v.firing = false
	if e.period > 0 {
		e.when += e.period
		e.seq = v.seq
		v.seq++
		v.down(e.index)
	} else {
		v.removeAt(e.index)
	}
}

// RunFor runs events for a virtual duration d from the current time.
func (v *Virtual) RunFor(d time.Duration) int {
	return v.Run(v.Now().Add(d))
}

// RunUntilIdle executes events until the queue is empty or maxEvents
// callbacks have run. It returns the number executed. A maxEvents cap
// guards against runaway self-rescheduling loops in tests.
func (v *Virtual) RunUntilIdle(maxEvents int) int {
	n := 0
	for n < maxEvents && v.Step() {
		n++
	}
	return n
}

// String describes the clock state, for debugging.
func (v *Virtual) String() string {
	v.lock()
	now, pending, fired := v.now, v.pending(), v.fired
	v.unlock()
	return fmt.Sprintf("virtual clock at %s, %d pending, %d fired",
		v.At(now).Format(time.RFC3339Nano), pending, fired)
}

// --- event heap: a plain binary min-heap on (when, seq) ---
//
// Hand-rolled rather than container/heap to keep the per-event path
// free of interface conversions and indirect calls.

func (v *Virtual) less(i, j int) bool {
	a, b := v.heap[i], v.heap[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (v *Virtual) swap(i, j int) {
	h := v.heap
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (v *Virtual) push(e *event) {
	e.index = len(v.heap)
	v.heap = append(v.heap, e)
	v.up(e.index)
}

// removeAt deletes the event at heap position i.
func (v *Virtual) removeAt(i int) {
	h := v.heap
	last := len(h) - 1
	e := h[i]
	if i != last {
		h[i] = h[last]
		h[i].index = i
	}
	h[last] = nil
	v.heap = h[:last]
	if i < last {
		v.fix(i)
	}
	e.index = -1
}

// fix restores heap order for a node whose key changed in place.
func (v *Virtual) fix(i int) {
	if !v.down(i) {
		v.up(i)
	}
}

func (v *Virtual) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !v.less(i, parent) {
			break
		}
		v.swap(i, parent)
		i = parent
	}
}

// down sifts node i toward the leaves; it reports whether i moved.
func (v *Virtual) down(i int) bool {
	start := i
	n := len(v.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && v.less(r, l) {
			m = r
		}
		if !v.less(m, i) {
			break
		}
		v.swap(i, m)
		i = m
	}
	return i > start
}
