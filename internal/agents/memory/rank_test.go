package memory

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/memsim"
	"sol/internal/stats"
)

// rankSizes returns the list lengths a ranking trial runs: every n below
// 12, where pdqsort and the stable sort run insertion sort alone, then
// random n up to 300.
func rankSizes(rng *stats.RNG) []int {
	var ns []int
	for n := 1; n < 12; n++ {
		ns = append(ns, n)
	}
	for i := 0; i < 100; i++ {
		ns = append(ns, 1+rng.Intn(300))
	}
	return ns
}

// tiedKeys returns n keys drawn from eight values, scaled by unit: heavy
// ties, as silent regions (all 0) and saturated ones produce.
func tiedKeys(rng *stats.RNG, n int, unit float64) []float64 {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = unit * float64(rng.Intn(8))
	}
	return keys
}

// sizedMem returns an unstarted n-region memory with tier 1 unbounded.
func sizedMem(n int) (*clock.Virtual, *memsim.Memory) {
	clk := clock.NewVirtual(epoch)
	return clk, memsim.MustNew(clk, memsim.DefaultConfig(n), &skewTrace{regions: n})
}

func sameOrder(t *testing.T, n int, got, want []int) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d: ranked %v, the sort it replaced gives %v", n, got, want)
	}
}

// TestRateOrderMatchesSortSlice: every ranking the agent runs over its
// own storage must leave the order of the sort.Slice or
// sort.SliceStable call it replaced, ties included (silent regions all
// estimate 0), or placements — and every pinned figure — would shift.
// Each site is checked as it runs, on the list it builds: its scratch
// holds the ranked list afterwards.
func TestRateOrderMatchesSortSlice(t *testing.T) {
	rng := stats.NewRNG(7)

	t.Run("classify", func(t *testing.T) {
		for _, n := range rankSizes(rng) {
			rates := tiedKeys(rng, n, 1)
			want := rng.Perm(n)
			got := slices.Clone(want)
			sort.Slice(want, func(a, b int) bool { return rates[want[a]] > rates[want[b]] })
			sort.Sort(&rateOrder{idx: got, rates: rates})
			sameOrder(t, n, got, want)
		}
	})

	// DefaultPredict ranks every region coldest-first by downsampled
	// hit count; keys of 300 accesses/s steps reach the 0.95 clamp, so
	// saturated regions tie too.
	t.Run("DefaultPredict", func(t *testing.T) {
		for _, n := range rankSizes(rng) {
			_, mem := sizedMem(n)
			m := new(Model)
			if err := m.init(mem, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			copy(m.rates, tiedKeys(rng, n, 300))
			down := m.downsampledRates(nil)
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.Slice(want, func(a, b int) bool { return down[want[a]] < down[want[b]] })
			p := m.DefaultPredict()
			sameOrder(t, n, m.order.idx, want)
			sameOrder(t, n, p.Value.Tier2, want[:len(p.Value.Tier2)])
		}
	})

	// TakeAction promotes every region outside the new tier-2 set that
	// is not in tier 1, in region order, ranked hottest-first.
	t.Run("TakeAction", func(t *testing.T) {
		for _, n := range rankSizes(rng) {
			_, mem := sizedMem(n)
			a := new(Actuator)
			a.init(mem, DefaultConfig())
			all, keep := make([]int, n), []int(nil)
			for r := range all {
				all[r] = r
				if rng.Intn(4) == 0 {
					keep = append(keep, r)
				}
			}
			a.TakeAction(&core.Prediction[Placement]{Value: Placement{Tier2: all}})
			rates := tiedKeys(rng, n, 1)
			var want []int
			for r := 0; r < n; r++ {
				if !slices.Contains(keep, r) {
					want = append(want, r)
				}
			}
			sort.Slice(want, func(x, y int) bool { return rates[want[x]] > rates[want[y]] })
			a.TakeAction(&core.Prediction[Placement]{Value: Placement{Tier2: keep, Rates: rates}})
			sameOrder(t, n, a.scr.order.idx, want)
		}
	})

	// Mitigate ranks the tier-2 regions, in region order, by heat; with
	// no remote traffic since the last snapshot the heat is the last
	// placement's rate scaled by 1e-9, ties and all.
	t.Run("Mitigate", func(t *testing.T) {
		for _, n := range rankSizes(rng) {
			_, mem := sizedMem(n)
			a := new(Actuator)
			a.init(mem, DefaultConfig())
			var tier2 []int
			for r := 0; r < n; r++ {
				if rng.Intn(2) == 0 {
					tier2 = append(tier2, r)
				}
			}
			rates := tiedKeys(rng, n, 1)
			a.TakeAction(&core.Prediction[Placement]{Value: Placement{Tier2: tier2, Rates: rates}})
			want := slices.Clone(tier2)
			sort.Slice(want, func(x, y int) bool { return rates[want[x]]*1e-9 > rates[want[y]]*1e-9 })
			a.Mitigate()
			sameOrder(t, n, a.scr.order.idx, want)
		}
	})

	// StaticPolicy.place ranks a fresh random permutation of the
	// regions hottest-first by observed hit fraction, stably.
	t.Run("StaticPolicy.place", func(t *testing.T) {
		for _, n := range rankSizes(rng) {
			clk, mem := sizedMem(n)
			s := NewStaticPolicy(clk, mem, 1, 0.85, 16)
			for r, f := range tiedKeys(rng, n, 0.125) {
				s.fracs[r], s.scans[r] = f, 1
			}
			draw := s.rng
			want := draw.Perm(n)
			s.place()
			rates := s.order.rates
			sort.SliceStable(want, func(a, b int) bool { return rates[want[a]] > rates[want[b]] })
			sameOrder(t, n, s.order.idx, want)
		}
	})
}

// rankHelpers are the agent's sort.Interface rankings, each beside the
// reflection-based call with the same comparator.
var rankHelpers = []struct {
	name string
	rank func(idx []int, keys []float64)
	ref  func(idx []int, keys []float64)
}{
	{
		"rateOrder/Sort",
		func(idx []int, keys []float64) { sort.Sort(&rateOrder{idx: idx, rates: keys}) },
		func(idx []int, keys []float64) {
			sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] > keys[idx[b]] })
		},
	},
	{
		"coldOrder/Sort",
		func(idx []int, keys []float64) { sort.Sort(&coldOrder{idx: idx, rates: keys}) },
		func(idx []int, keys []float64) {
			sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		},
	},
	{
		"rateOrder/Stable",
		func(idx []int, keys []float64) { sort.Stable(&rateOrder{idx: idx, rates: keys}) },
		func(idx []int, keys []float64) {
			sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] > keys[idx[b]] })
		},
	},
}

// FuzzRankOrder checks each ranking helper against sort.Slice or
// sort.SliceStable on any keys: raw is read as little-endian float64s,
// so the corpus reaches ties, NaNs, ±0 and infinities, where the
// comparator is no strict weak order and only running the same
// algorithm keeps the permutation. seed draws the starting order.
func FuzzRankOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		keys := make([]float64, len(raw)/8)
		for i := range keys {
			keys[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		start := stats.NewRNG(seed).Perm(len(keys))
		for _, h := range rankHelpers {
			got, want := slices.Clone(start), slices.Clone(start)
			h.rank(got, keys)
			h.ref(want, keys)
			if !slices.Equal(got, want) {
				t.Fatalf("%s on %v from %v: %v, the reflection-based sort gives %v", h.name, keys, start, got, want)
			}
		}
	})
}
