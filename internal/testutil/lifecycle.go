package testutil

import (
	"time"

	"sol/internal/faults"
)

// Lifecycle is a scripted faults.NodePlan: node i changes state at each
// of Lifecycle[i]'s transitions in turn, which are in increasing At
// order, and is NodeUp before the first.
// A node past the end of the table, or with no transitions, stays up.
// A transition may repeat the state it follows; Next still names it, so
// a script can reproduce a plan whose edges do not all change the state.
// It reads only the table, so it is allocation-free and safe for
// concurrent use.
type Lifecycle [][]Transition

// Transition puts a node in State from elapsed time At onward, until
// its next transition.
type Transition struct {
	At    time.Duration
	State faults.NodeState
}

// State implements faults.NodePlan.
func (l Lifecycle) State(node int, at time.Duration) faults.NodeState {
	st := faults.NodeUp
	if node < len(l) {
		for _, tr := range l[node] {
			if tr.At > at {
				break
			}
			st = tr.State
		}
	}
	return st
}

// Next implements faults.NodePlan.
func (l Lifecycle) Next(node int, after time.Duration) (time.Duration, bool) {
	if node < len(l) {
		for _, tr := range l[node] {
			if tr.At > after {
				return tr.At, true
			}
		}
	}
	return 0, false
}

// Up, Dark and Down return the transition to their state at at.
func Up(at time.Duration) Transition   { return Transition{at, faults.NodeUp} }
func Dark(at time.Duration) Transition { return Transition{at, faults.NodeDark} }
func Down(at time.Duration) Transition { return Transition{at, faults.NodeDown} }

// FleetLifecycle is the fleet tests' eight-node lifecycle script:
// crashes, restarts and a dark window, with edges mid-epoch and on
// epoch boundaries. Node 3's 20 s edge and node 5's 15 s and 19 s
// edges change nothing, and a driver must take them in stride. The
// script reproduces, instant for instant, the merged crash (13.5 s,
// 40%), two-cycle flap (down 5–9 s and 15–19 s, 50%) and blackout
// (dark 10–20 s, 30%) plan that internal/fleet's trace.golden.json was
// recorded under, so that golden holds.
var FleetLifecycle = Lifecycle{
	1: {Down(13500 * time.Millisecond)},
	3: {Dark(10 * time.Second), Down(13500 * time.Millisecond), Down(20 * time.Second)},
	4: {Down(5 * time.Second), Up(9 * time.Second), Down(15 * time.Second), Up(19 * time.Second)},
	5: {Down(5 * time.Second), Up(9 * time.Second), Down(13500 * time.Millisecond), Down(15 * time.Second), Down(19 * time.Second)},
	7: {Down(5 * time.Second), Up(9 * time.Second), Down(15 * time.Second), Up(19 * time.Second)},
}
