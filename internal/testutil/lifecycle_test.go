package testutil

import (
	"slices"
	"testing"
	"time"

	"sol/internal/faults"
)

func TestLifecycleScript(t *testing.T) {
	l := Lifecycle{
		1: {Dark(2 * time.Second), Down(5 * time.Second), Down(7 * time.Second), Up(9 * time.Second)},
	}
	for _, tc := range []struct {
		node int
		at   time.Duration
		want faults.NodeState
	}{
		{0, time.Hour, faults.NodeUp}, // no transitions
		{1, 0, faults.NodeUp},         // up before the first
		{1, 2 * time.Second, faults.NodeDark},
		{1, 5 * time.Second, faults.NodeDown},
		{1, 8 * time.Second, faults.NodeDown},
		{1, 9 * time.Second, faults.NodeUp},
		{5, time.Second, faults.NodeUp}, // past the table
	} {
		if got := l.State(tc.node, tc.at); got != tc.want {
			t.Errorf("State(%d, %v) = %s, want %s", tc.node, tc.at, got, tc.want)
		}
	}
	// Next names every edge strictly after its argument, the 7 s edge
	// that changes nothing included.
	var edges []time.Duration
	for at := time.Duration(-1); ; {
		next, ok := l.Next(1, at)
		if !ok {
			break
		}
		edges = append(edges, next)
		at = next
	}
	if want := []time.Duration{2 * time.Second, 5 * time.Second, 7 * time.Second, 9 * time.Second}; !slices.Equal(edges, want) {
		t.Errorf("node 1 edges = %v, want %v", edges, want)
	}
	if _, ok := l.Next(0, 0); ok {
		t.Error("a node without transitions has a next edge")
	}
	if _, ok := l.Next(7, 0); ok {
		t.Error("a node past the table has a next edge")
	}
}
