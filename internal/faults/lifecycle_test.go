package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// walkPlan replays node's lifecycle over [0, horizon] via Next,
// checking that State is constant between consecutive transition
// instants — the contract fleet drivers rely on to pause free-running
// clocks exactly at each change.
func walkPlan(t *testing.T, p NodePlan, node int, horizon time.Duration) []time.Duration {
	t.Helper()
	var transitions []time.Duration
	at := time.Duration(0)
	for {
		next, ok := p.Next(node, at)
		if !ok || next > horizon {
			break
		}
		if next <= at {
			t.Fatalf("Next(%d, %v) = %v, not strictly after", node, at, next)
		}
		// State must not change strictly inside (at, next).
		st := p.State(node, at)
		for _, probe := range []time.Duration{at + 1, (at + next) / 2, next - 1} {
			if probe <= at || probe >= next {
				continue
			}
			if got := p.State(node, probe); got != st {
				t.Fatalf("state changed at %v (%s -> %s) with no transition scheduled between %v and %v",
					probe, st, got, at, next)
			}
		}
		transitions = append(transitions, next)
		at = next
	}
	return transitions
}

func TestCrashPlan(t *testing.T) {
	c := Crash{At: 10 * time.Second, Frac: 1, Seed: 7}
	if got := c.State(3, 9*time.Second); got != NodeUp {
		t.Fatalf("state before crash = %s", got)
	}
	if got := c.State(3, 10*time.Second); got != NodeDown {
		t.Fatalf("state at crash instant = %s, want down (inclusive)", got)
	}
	if got := c.State(3, time.Hour); got != NodeDown {
		t.Fatalf("crash is permanent; state = %s", got)
	}
	tr := walkPlan(t, c, 3, time.Minute)
	if len(tr) != 1 || tr[0] != 10*time.Second {
		t.Fatalf("transitions = %v, want [10s]", tr)
	}
	// Next at the crash instant itself: nothing further.
	if _, ok := c.Next(3, 10*time.Second); ok {
		t.Fatal("Next after the crash instant should report no transition")
	}
}

func TestCrashFractionAndWindow(t *testing.T) {
	c := Crash{At: time.Second, Frac: 0.2, Seed: 42}
	const n = 10000
	down := 0
	for node := 0; node < n; node++ {
		if c.State(node, time.Minute) == NodeDown {
			down++
		}
	}
	frac := float64(down) / n
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("crash fraction = %v, want ~0.2", frac)
	}
	// A windowed crash never selects outside [Lo, Hi).
	w := Crash{At: time.Second, Frac: 1, Seed: 42, Lo: 10, Hi: 20}
	for node := 0; node < 40; node++ {
		want := node >= 10 && node < 20
		if got := w.State(node, time.Minute) == NodeDown; got != want {
			t.Fatalf("node %d: windowed crash down = %v, want %v", node, got, want)
		}
		if _, ok := w.Next(node, 0); ok != want {
			t.Fatalf("node %d: windowed crash Next ok = %v, want %v", node, ok, want)
		}
	}
}

// TestPlanDeterministicSelection: selection is a pure function of
// (seed, node), independent of query order or time.
func TestPlanDeterministicSelection(t *testing.T) {
	a := Crash{At: time.Second, Frac: 0.5, Seed: 99}
	b := Crash{At: time.Second, Frac: 0.5, Seed: 99}
	for node := 100 - 1; node >= 0; node-- { // reversed order on purpose
		if a.State(node, time.Minute) != b.State(node, time.Minute) {
			t.Fatalf("node %d: selection differs between identical plans", node)
		}
	}
	c := Crash{At: time.Second, Frac: 0.5, Seed: 100}
	same := 0
	for node := 0; node < 1000; node++ {
		if a.State(node, time.Minute) == c.State(node, time.Minute) {
			same++
		}
	}
	if same > 990 {
		t.Fatalf("different seeds select nearly identical sets (%d/1000 agree)", same)
	}
}

// TestInjectedConcurrent hammers the taxonomy injectors' hit counters
// from many goroutines — run under -race this is the regression test
// for the atomic counters. Corrupt/Fault themselves are documented
// single-goroutine (sequential RNG), so each goroutine gets its own
// injector and only Injected() is read across goroutines.
func TestInjectedConcurrent(t *testing.T) {
	b := NewBadData(1, 100, 1)
	s := NewScanFault(1, errors.New("scan failed"), 1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent readers of the counters
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = b.Injected()
				_ = s.Injected()
			}
		}
	}()
	const n = 1000
	for i := 0; i < n; i++ {
		b.Corrupt(50)
		_ = s.Fault(i)
	}
	close(stop)
	wg.Wait()
	if b.Injected() != n || s.Injected() != n {
		t.Fatalf("Injected = %d, %d; want %d each", b.Injected(), s.Injected(), n)
	}
}
