package clock

import (
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualNow(t *testing.T) {
	v := NewVirtual(epoch)
	if !v.Now().Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", v.Now(), epoch)
	}
}

func TestVirtualOrdering(t *testing.T) {
	v := NewVirtual(epoch)
	var got []int
	v.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	v.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	v.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	v.Run(epoch.Add(time.Second))
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestVirtualSameTimeFIFO(t *testing.T) {
	v := NewVirtual(epoch)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		v.AfterFunc(time.Millisecond, func() { got = append(got, i) })
	}
	v.RunFor(time.Millisecond)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events not FIFO: %v", got)
		}
	}
}

func TestVirtualAdvancesToEventTime(t *testing.T) {
	v := NewVirtual(epoch)
	var at time.Time
	v.AfterFunc(42*time.Millisecond, func() { at = v.Now() })
	v.Run(epoch.Add(time.Second))
	if want := epoch.Add(42 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("callback saw Now()=%v, want %v", at, want)
	}
	if !v.Now().Equal(epoch.Add(time.Second)) {
		t.Fatalf("after Run, Now()=%v, want deadline", v.Now())
	}
}

func TestVirtualDeadlineInclusive(t *testing.T) {
	v := NewVirtual(epoch)
	fired := false
	v.AfterFunc(time.Second, func() { fired = true })
	v.Run(epoch.Add(time.Second))
	if !fired {
		t.Fatal("event at exactly the deadline did not fire")
	}
}

func TestVirtualReschedulingCallback(t *testing.T) {
	v := NewVirtual(epoch)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			v.AfterFunc(10*time.Millisecond, tick)
		}
	}
	v.AfterFunc(10*time.Millisecond, tick)
	v.RunFor(time.Second)
	if count != 5 {
		t.Fatalf("rescheduling callback ran %d times, want 5", count)
	}
}

func TestTimerStop(t *testing.T) {
	v := NewVirtual(epoch)
	fired := false
	tm := v.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop() = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	v.RunFor(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	v := NewVirtual(epoch)
	tm := v.AfterFunc(time.Millisecond, func() {})
	v.RunFor(time.Second)
	if tm.Stop() {
		t.Fatal("Stop() after firing = true, want false")
	}
}

func TestTimerStopNil(t *testing.T) {
	var tm *Timer
	if tm.Stop() {
		t.Fatal("nil Timer Stop() = true")
	}
}

func TestVirtualNegativeDelay(t *testing.T) {
	v := NewVirtual(epoch)
	fired := false
	v.AfterFunc(-time.Second, func() { fired = true })
	if !v.Step() || !fired {
		t.Fatal("negative-delay event did not fire immediately")
	}
	if !v.Now().Equal(epoch) {
		t.Fatalf("negative delay moved clock to %v", v.Now())
	}
}

func TestVirtualStepEmpty(t *testing.T) {
	v := NewVirtual(epoch)
	if v.Step() {
		t.Fatal("Step() on empty queue = true")
	}
}

func TestVirtualRunUntilIdleCap(t *testing.T) {
	v := NewVirtual(epoch)
	var tick func()
	tick = func() { v.AfterFunc(time.Millisecond, tick) }
	v.AfterFunc(0, tick)
	n := v.RunUntilIdle(100)
	if n != 100 {
		t.Fatalf("RunUntilIdle executed %d events, want cap of 100", n)
	}
}

func TestVirtualLenAndFired(t *testing.T) {
	v := NewVirtual(epoch)
	v.AfterFunc(time.Millisecond, func() {})
	v.AfterFunc(2*time.Millisecond, func() {})
	if v.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", v.Len())
	}
	v.RunFor(time.Second)
	if v.Len() != 0 {
		t.Fatalf("Len() after run = %d, want 0", v.Len())
	}
	if v.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", v.Fired())
	}
}

func TestVirtualRunReturnsCount(t *testing.T) {
	v := NewVirtual(epoch)
	for i := 0; i < 7; i++ {
		v.AfterFunc(time.Duration(i)*time.Millisecond, func() {})
	}
	if n := v.RunFor(time.Second); n != 7 {
		t.Fatalf("Run returned %d, want 7", n)
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing timestamp order.
func TestVirtualOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		v := NewVirtual(epoch)
		var times []time.Time
		for _, d := range delays {
			v.AfterFunc(time.Duration(d)*time.Microsecond, func() {
				times = append(times, v.Now())
			})
		}
		v.RunFor(time.Second)
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i].Before(times[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never runs past the deadline, regardless of the
// schedule of events.
func TestVirtualDeadlineProperty(t *testing.T) {
	prop := func(delays []uint16, horizon uint16) bool {
		v := NewVirtual(epoch)
		deadline := epoch.Add(time.Duration(horizon) * time.Microsecond)
		ok := true
		for _, d := range delays {
			v.AfterFunc(time.Duration(d)*time.Microsecond, func() {
				if v.Now().After(deadline) {
					ok = false
				}
			})
		}
		v.Run(deadline)
		return ok && v.Now().Equal(deadline)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRealClock(t *testing.T) {
	r := NewReal()
	before := time.Now()
	now := r.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatalf("Real.Now() = %v far before time.Now()", now)
	}
	done := make(chan struct{})
	r.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Real.AfterFunc callback never fired")
	}
}

func TestRealTimerStop(t *testing.T) {
	r := NewReal()
	tm := r.AfterFunc(time.Hour, func() { t.Error("should not fire") })
	if !tm.Stop() {
		t.Fatal("Stop() on pending real timer = false")
	}
}

// TestRealNowNSMonotonic: Real's nanosecond read counts from the
// monotonic clock, never from time.Now().UnixNano(). The wall clock
// can be stepped by NTP or an operator at any moment, and the runtime
// would report a step as schedule lateness or a negative epoch age. So
// 10k reads never decrease, and each one, turned back into a time.Time
// with At, lies between the time.Now() readings that bracket it: the
// comparison is monotonic, since both sides carry a monotonic reading.
func TestRealNowNSMonotonic(t *testing.T) {
	r := NewReal()
	prev := r.NowNS()
	if prev < 0 {
		t.Fatalf("first NowNS = %d, want >= 0", prev)
	}
	for i := 0; i < 10000; i++ {
		before := time.Now()
		ns := r.NowNS()
		after := time.Now()
		if ns < prev {
			t.Fatalf("read %d: NowNS went back from %d to %d", i, prev, ns)
		}
		prev = ns
		if at := r.At(ns); at.Before(before) || at.After(after) {
			t.Fatalf("read %d: At(NowNS()) = %v outside the time.Now() bracket [%v, %v]", i, at, before, after)
		}
	}
	// The wall component tracks Now too, within a slack that only an
	// actual wall-clock step during the test could exceed.
	if d := r.At(r.NowNS()).Sub(r.Now().Round(0)); d < -time.Second || d > time.Second {
		t.Fatalf("At(NowNS()) is %v off Now()'s wall time", d)
	}
}

// TestVirtualNowNS: Virtual's nanosecond read is its internal time,
// and At turns it back into exactly Now().
func TestVirtualNowNS(t *testing.T) {
	v := NewVirtual(epoch)
	check := func(want time.Duration) {
		t.Helper()
		if got := v.NowNS(); got != int64(want) {
			t.Fatalf("NowNS = %d, want %d", got, want)
		}
		if v.At(v.NowNS()) != v.Now() {
			t.Fatalf("At(NowNS()) = %v, Now() = %v", v.At(v.NowNS()), v.Now())
		}
	}
	check(0)
	v.AfterFunc(1500*time.Microsecond, func() {})
	v.Step()
	check(1500 * time.Microsecond)
	v.Run(epoch.Add(time.Second))
	check(time.Second)
}

func TestVirtualAfterFuncNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AfterFunc(nil) did not panic")
		}
	}()
	NewVirtual(epoch).AfterFunc(time.Second, nil)
}
