package clock

// Tests for the zero-allocation event engine: Arm, Timer.Reset and
// Tick. The engine's contract is that Reset/Tick are pure
// optimizations — they must reproduce, event for event, the (time,
// insertion-order) execution of the equivalent AfterFunc-only program.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTimerResetPending(t *testing.T) {
	v := NewVirtual(epoch)
	var fired []time.Time
	tm := v.AfterFunc(10*time.Millisecond, func() { fired = append(fired, v.Now()) })
	if !tm.Reset(30 * time.Millisecond) {
		t.Fatal("Reset on pending timer = false, want true")
	}
	v.RunFor(time.Second)
	if len(fired) != 1 || !fired[0].Equal(epoch.Add(30*time.Millisecond)) {
		t.Fatalf("fired = %v, want exactly once at +30ms", fired)
	}
}

func TestTimerResetAfterFire(t *testing.T) {
	v := NewVirtual(epoch)
	count := 0
	tm := v.AfterFunc(10*time.Millisecond, func() { count++ })
	v.RunFor(time.Second)
	if count != 1 {
		t.Fatalf("fired %d times, want 1", count)
	}
	if tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset on fired timer = true, want false")
	}
	v.RunFor(time.Second)
	if count != 2 {
		t.Fatalf("re-armed timer fired %d times total, want 2", count)
	}
}

func TestTimerResetAfterStop(t *testing.T) {
	v := NewVirtual(epoch)
	count := 0
	tm := v.AfterFunc(10*time.Millisecond, func() { count++ })
	tm.Stop()
	if tm.Reset(10 * time.Millisecond) {
		t.Fatal("Reset on stopped timer = true, want false")
	}
	v.RunFor(time.Second)
	if count != 1 {
		t.Fatalf("reset-after-stop fired %d times, want 1", count)
	}
}

func TestTimerResetFromOwnCallback(t *testing.T) {
	v := NewVirtual(epoch)
	var times []time.Duration
	var tm *Timer
	tm = v.AfterFunc(10*time.Millisecond, func() {
		times = append(times, v.Now().Sub(epoch))
		if len(times) < 3 {
			tm.Reset(20 * time.Millisecond)
		}
	})
	v.RunFor(time.Second)
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond}
	if fmt.Sprint(times) != fmt.Sprint(want) {
		t.Fatalf("self-resetting timer fired at %v, want %v", times, want)
	}
}

func TestTickPeriodic(t *testing.T) {
	v := NewVirtual(epoch)
	var times []time.Duration
	v.Tick(10*time.Millisecond, func() { times = append(times, v.Now().Sub(epoch)) })
	v.RunFor(35 * time.Millisecond)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if fmt.Sprint(times) != fmt.Sprint(want) {
		t.Fatalf("ticker fired at %v, want %v", times, want)
	}
}

func TestTickStop(t *testing.T) {
	v := NewVirtual(epoch)
	count := 0
	tk := v.Tick(10*time.Millisecond, func() { count++ })
	v.RunFor(25 * time.Millisecond)
	tk.Stop()
	v.RunFor(time.Second)
	if count != 2 {
		t.Fatalf("stopped ticker fired %d times, want 2", count)
	}
}

func TestTickStopFromCallback(t *testing.T) {
	v := NewVirtual(epoch)
	count := 0
	var tk *Timer
	tk = v.Tick(10*time.Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	v.RunFor(time.Second)
	if count != 3 {
		t.Fatalf("self-stopping ticker fired %d times, want 3", count)
	}
	if v.Len() != 0 {
		t.Fatalf("%d events still pending after ticker stopped itself", v.Len())
	}
}

func TestTickResetChangesPeriod(t *testing.T) {
	v := NewVirtual(epoch)
	var times []time.Duration
	tk := v.Tick(10*time.Millisecond, func() { times = append(times, v.Now().Sub(epoch)) })
	v.RunFor(20 * time.Millisecond) // fires at 10, 20
	tk.Reset(50 * time.Millisecond) // next at 70, then every 50
	v.RunFor(160 * time.Millisecond)
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond,
		70 * time.Millisecond, 120 * time.Millisecond, 170 * time.Millisecond,
	}
	if fmt.Sprint(times) != fmt.Sprint(want) {
		t.Fatalf("ticker fired at %v, want %v", times, want)
	}
}

func TestTickRestartAfterStop(t *testing.T) {
	v := NewVirtual(epoch)
	count := 0
	tk := v.Tick(10*time.Millisecond, func() { count++ })
	v.RunFor(15 * time.Millisecond)
	tk.Stop()
	v.RunFor(100 * time.Millisecond)
	tk.Reset(10 * time.Millisecond)
	v.RunFor(25 * time.Millisecond)
	if count != 3 {
		t.Fatalf("restarted ticker fired %d times total, want 3", count)
	}
}

func TestTickInvalid(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"nil callback", func() { NewVirtual(epoch).Tick(time.Second, nil) }},
		{"zero interval", func() { NewVirtual(epoch).Tick(0, func() {}) }},
		{"real zero interval", func() { NewReal().Tick(0, func() {}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Tick did not panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// TestEngineMatchesAfterFuncReference is the determinism proof for the
// engine: a workload built from Tick tickers and a Reset-driven
// irregular loop must produce the exact same (time, order) trace as
// the same workload written against AfterFunc only — fresh one-shot
// timer per event, re-scheduled as the callback's last action — which
// is the seed implementation's idiom.
func TestEngineMatchesAfterFuncReference(t *testing.T) {
	type firing struct {
		at    time.Duration
		label string
	}

	horizon := 500 * time.Millisecond

	// Reference: AfterFunc-only self-rescheduling loops. Two tickers
	// share the 10ms grid (insertion order must break the tie), one
	// runs on a 15ms grid, and an "irregular" loop re-schedules itself
	// at alternating 7ms/13ms gaps, as the runtime's collect loop does.
	reference := func() []firing {
		v := NewVirtual(epoch)
		var trace []firing
		rec := func(label string) func() {
			return func() { trace = append(trace, firing{v.Now().Sub(epoch), label}) }
		}
		loop := func(d time.Duration, label string) {
			var tick func()
			tick = func() {
				rec(label)()
				v.AfterFunc(d, tick)
			}
			v.AfterFunc(d, tick)
		}
		loop(10*time.Millisecond, "a10")
		loop(10*time.Millisecond, "b10")
		loop(15*time.Millisecond, "c15")
		gaps := []time.Duration{7 * time.Millisecond, 13 * time.Millisecond}
		n := 0
		var irr func()
		irr = func() {
			rec("irr")()
			n++
			v.AfterFunc(gaps[n%2], irr)
		}
		v.AfterFunc(gaps[0], irr)
		v.RunFor(horizon)
		return trace
	}()

	// Engine: the same workload on Tick + Reset.
	engine := func() []firing {
		v := NewVirtual(epoch)
		var trace []firing
		rec := func(label string) func() {
			return func() { trace = append(trace, firing{v.Now().Sub(epoch), label}) }
		}
		v.Tick(10*time.Millisecond, rec("a10"))
		v.Tick(10*time.Millisecond, rec("b10"))
		v.Tick(15*time.Millisecond, rec("c15"))
		gaps := []time.Duration{7 * time.Millisecond, 13 * time.Millisecond}
		n := 0
		var tm *Timer
		tm = v.AfterFunc(gaps[0], func() {
			rec("irr")()
			n++
			tm.Reset(gaps[n%2])
		})
		v.RunFor(horizon)
		return trace
	}()

	if len(engine) != len(reference) {
		t.Fatalf("engine fired %d events, reference %d", len(engine), len(reference))
	}
	for i := range reference {
		if engine[i] != reference[i] {
			t.Fatalf("trace diverges at event %d: engine %v+%s, reference %v+%s",
				i, engine[i].at, engine[i].label, reference[i].at, reference[i].label)
		}
	}
}

// TestTickerAllocs is the zero-allocation regression test for the
// engine's steady-state hot path: driving tickers, Reset loops and a
// re-armed one-shot, by window (RunFor) or one event at a time (Step),
// must not allocate. The subtest is named for the single-driver engine,
// the clock's one mode.
func TestTickerAllocs(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		v := NewVirtual(epoch)
		v.Tick(time.Millisecond, func() {})
		v.Tick(7*time.Millisecond, func() {})
		var tm *Timer
		tm = v.AfterFunc(3*time.Millisecond, func() { tm.Reset(3 * time.Millisecond) })
		once := v.AfterFunc(time.Millisecond, func() {})
		v.RunFor(100 * time.Millisecond) // warm up heap capacity
		if avg := testing.AllocsPerRun(100, func() {
			v.RunFor(10 * time.Millisecond)
			v.Step()
			once.Reset(time.Millisecond) // fired and dequeued: re-armed
		}); avg != 0 {
			t.Fatalf("steady-state ticker loop allocates %.1f allocs per 10ms window, want 0", avg)
		}
	})
}

func TestRealTick(t *testing.T) {
	r := NewReal()
	done := make(chan struct{}, 16)
	tk := r.Tick(time.Millisecond, func() { done <- struct{}{} })
	defer tk.Stop()
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("real ticker fired %d times, want >= 3", i)
		}
	}
	tk.Stop()
}

// TestTickerResetInsideCallback: a ticker whose callback calls Reset(d)
// fires next at the reset's instant plus d — the reset applied once —
// and d becomes its period. On Real the instants are wall-clock reads,
// so the first gap is checked against a window that admits scheduling
// latency but excludes 2d, where a reset applied twice would put it.
func TestTickerResetInsideCallback(t *testing.T) {
	const period, d = 10 * time.Millisecond, 200 * time.Millisecond
	// fires starts a ticker on clk whose first callback resets it to d;
	// each callback sends its clock reading, the first one taken just
	// before the reset.
	fires := func(clk Clock) (*Timer, chan int64) {
		out := make(chan int64, 8)
		handoff := make(chan *Timer, 1)
		first := true
		tk := clk.Tick(period, func() {
			now := clk.NowNS()
			if first {
				first = false
				(<-handoff).Reset(d)
			}
			out <- now
		})
		handoff <- tk
		return tk, out
	}
	v := NewVirtual(epoch)
	vtk, vout := fires(v)
	v.RunFor(period + 2*d)
	vtk.Stop()
	close(vout)
	var fired []time.Duration
	for ns := range vout {
		fired = append(fired, time.Duration(ns))
	}
	if want := fmt.Sprint([]time.Duration{period, period + d, period + 2*d}); fmt.Sprint(fired) != want {
		t.Fatalf("virtual: ticker reset inside its callback fired at %v, want %s", fired, want)
	}

	tk, out := fires(NewReal())
	defer tk.Stop()
	var got [2]int64
	for i := range got {
		select {
		case got[i] = <-out:
		case <-time.After(5 * time.Second):
			t.Fatalf("real ticker fired %d times, want 2", i)
		}
	}
	if gap := time.Duration(got[1] - got[0]); gap < d || gap >= 2*d-d/4 {
		t.Fatalf("real ticker reset to %v inside its callback fired next after %v, want within [%v, %v)", d, gap, d, 2*d-d/4)
	}
}

// armOwner embeds its timer and is its own handler, the way the
// runtime, node and memsim own theirs.
type armOwner struct {
	tm    Timer
	fired int
	at    int64
}

func (o *armOwner) Fire(now int64) { o.fired, o.at = o.fired+1, now }

// TestArmAllocs: an embedded timer's whole lifecycle — Arm, Arm while
// pending, Reset, firing, Stop, Stop and Reset while unarmed — makes no
// allocation, and firing hands the handler the clock's own reading.
func TestArmAllocs(t *testing.T) {
	v := NewVirtual(epoch)
	o := new(armOwner)
	if o.tm.Stop() || o.tm.Reset(time.Millisecond) || v.Len() != 0 {
		t.Fatal("Stop or Reset of a zero Timer reported a pending timer or queued it")
	}
	if avg := testing.AllocsPerRun(100, func() {
		v.Arm(&o.tm, o, time.Millisecond, 0)
		v.Arm(&o.tm, o, 2*time.Millisecond, time.Millisecond)
		o.tm.Reset(time.Millisecond)
		v.Step()
		if o.at != v.NowNS() {
			t.Fatalf("handler got now %d, clock reads %d", o.at, v.NowNS())
		}
		o.tm.Stop()
	}); avg != 0 {
		t.Fatalf("embedded timer lifecycle allocates %.1f times, want 0", avg)
	}
	if o.fired != 101 || v.Len() != 0 {
		t.Fatalf("fired %d times with %d pending, want 101 and 0: Arm while pending must re-arm in place", o.fired, v.Len())
	}
}

// countOwner counts its firings; several goroutines may fire it.
type countOwner struct {
	tm    Timer
	fired atomic.Int64
}

func (o *countOwner) Fire(int64) { o.fired.Add(1) }

// TestRealArmConcurrent: a Real timer is armed, re-armed, reset and
// stopped from several goroutines while its handler fires on others —
// the race detector's view of the Real backing — and once stopped and
// past any handler already in flight, it fires no more.
func TestRealArmConcurrent(t *testing.T) {
	r := NewReal()
	o := new(countOwner)
	r.Arm(&o.tm, o, time.Millisecond, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (g + i) % 3 {
				case 0:
					o.tm.Reset(time.Duration(i%3) * 100 * time.Microsecond)
				case 1:
					r.Arm(&o.tm, o, 50*time.Microsecond, time.Duration(i%2)*time.Millisecond)
				default:
					o.tm.Stop()
				}
			}
		}(g)
	}
	wg.Wait()
	o.tm.Stop()
	time.Sleep(20 * time.Millisecond) // let a handler in flight finish
	n := o.fired.Load()
	time.Sleep(20 * time.Millisecond)
	if extra := o.fired.Load() - n; extra != 0 {
		t.Fatalf("stopped timer fired %d more times", extra)
	}
}
