package node

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"sol/internal/clock"
	"sol/internal/stats"
	"sol/internal/workload"
)

// randomLoad emits random (but bounded) usage each tick.
type randomLoad struct{ rng *stats.RNG }

func (r *randomLoad) Name() string { return "random" }
func (r *randomLoad) Tick(_ workload.Step, res workload.Resources) workload.Usage {
	u := r.rng.Float64() * res.Cores
	return workload.Usage{
		Util:      u,
		Unmet:     r.rng.Float64() * 2,
		IPC:       0.2 + 1.6*r.rng.Float64(),
		StallFrac: r.rng.Float64(),
	}
}

// TestNodeMonotonicityProperty: under any bounded workload and any
// sequence of frequency/core knob changes, cumulative counters (energy,
// cycles, instructions, wait) never decrease, stalled cycles never
// exceed unhalted cycles, and unhalted never exceeds total.
func TestNodeMonotonicityProperty(t *testing.T) {
	prop := func(seed uint64, knobs []uint8) bool {
		clk := clock.NewVirtual(epoch)
		n := MustNew(clk, DefaultConfig())
		if _, err := n.AddVM("vm", 4, &randomLoad{rng: stats.NewRNG(seed)}); err != nil {
			return false
		}
		n.Start()
		var prevE, prevW float64
		var prev CPUCounters
		for i, k := range knobs {
			switch i % 3 {
			case 0:
				_ = n.SetFrequencyLevel("vm", int(k)%3)
			case 1:
				_ = n.SetAvailableCores("vm", int(k)%5)
			}
			clk.RunFor(100 * time.Millisecond)
			c := n.Counters("vm")
			e, w := n.EnergyJ("vm"), n.WaitSeconds("vm")
			if e < prevE || w < prevW {
				return false
			}
			if c.Instructions < prev.Instructions ||
				c.UnhaltedCycles < prev.UnhaltedCycles ||
				c.StalledCycles < prev.StalledCycles ||
				c.TotalCycles < prev.TotalCycles {
				return false
			}
			if c.StalledCycles > c.UnhaltedCycles+1e-9 {
				return false
			}
			if c.UnhaltedCycles > c.TotalCycles+1e-9 {
				return false
			}
			prevE, prevW, prev = e, w, c
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAlphaBoundsProperty: the safeguard signal α is always in [0, 1]
// over any measurement interval of any workload.
func TestAlphaBoundsProperty(t *testing.T) {
	prop := func(seed uint64, steps uint8) bool {
		clk := clock.NewVirtual(epoch)
		n := MustNew(clk, DefaultConfig())
		if _, err := n.AddVM("vm", 4, &randomLoad{rng: stats.NewRNG(seed)}); err != nil {
			return false
		}
		n.Start()
		prev := n.Counters("vm")
		for i := 0; i < int(steps%30)+2; i++ {
			clk.RunFor(time.Duration(i%7+1) * 50 * time.Millisecond)
			cur := n.Counters("vm")
			a := cur.Alpha(prev)
			if a < -1e-9 || a > 1+1e-9 || math.IsNaN(a) {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEnergyFrequencyOrderProperty: with an identical workload, running
// at a higher frequency level never consumes less energy — the premise
// behind every SmartOverclock power result.
func TestEnergyFrequencyOrderProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		energyAt := func(level int) float64 {
			clk := clock.NewVirtual(epoch)
			n := MustNew(clk, DefaultConfig())
			if _, err := n.AddVM("vm", 4, &randomLoad{rng: stats.NewRNG(seed)}); err != nil {
				return -1
			}
			n.Start()
			_ = n.SetFrequencyLevel("vm", level)
			clk.RunFor(5 * time.Second)
			return n.EnergyJ("vm")
		}
		e0, e1, e2 := energyAt(0), energyAt(1), energyAt(2)
		return e0 >= 0 && e0 <= e1 && e1 <= e2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
