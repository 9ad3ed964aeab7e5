// Package testutil holds measurement helpers and fixtures shared by
// the module's tests: exact allocation counts, and scripted node
// lifecycles for fleet and campaign tests.
package testutil

import (
	"runtime"
	"testing"
)

// Mallocs returns how many heap objects f allocates, exactly: the
// process-wide MemStats.Mallocs delta across f, read at GOMAXPROCS 1 so
// no other goroutine runs beside f. testing.AllocsPerRun would run f
// once uncounted and round its mean down.
//
// Under -short it skips t instead. The runtime's own goroutines still
// run inside the window, and under the race detector's slowdown the
// background scavenger re-arming its sleep timer (a timer-heap growth)
// lands there now and then: 2 of 450 runs of overclock's sample-path
// test on a loaded 2-CPU machine. CI's race run is the -short one; its
// alloc guard, without -race or -short, takes the counts.
func Mallocs(t testing.TB, f func()) uint64 {
	t.Helper()
	if testing.Short() {
		t.Skip("exact process-wide allocation count; run without -short and -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
