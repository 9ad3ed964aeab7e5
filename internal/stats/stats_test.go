package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	root := NewRNG(7)
	child := root.Split()
	if root.Uint64() == child.Uint64() {
		t.Fatal("split RNG produced identical stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(3)
	var w Welford
	for i := 0; i < 50000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.05 {
		t.Fatalf("normal mean = %v, want ~0", w.Mean())
	}
	if math.Abs(w.StdDev()-1) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~1", w.StdDev())
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(4)
	var w Welford
	for i := 0; i < 50000; i++ {
		w.Add(r.ExpFloat64())
	}
	if math.Abs(w.Mean()-1) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~1", w.Mean())
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm(10) = %v is not a permutation", p)
		}
		seen[v] = true
	}
	// PermInto over a dirty, reused buffer is the same permutation.
	buf := []int{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	buf = NewRNG(5).PermInto(buf, 10)
	if len(buf) != 10 {
		t.Fatalf("PermInto returned %d elements, want 10", len(buf))
	}
	for i := range p {
		if buf[i] != p[i] {
			t.Fatalf("PermInto = %v, Perm = %v", buf, p)
		}
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d", w.Count())
	}
	if w.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of the classic dataset is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-9 {
		t.Fatalf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	w.Reset()
	if w.Count() != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestWelfordFewSamples(t *testing.T) {
	var w Welford
	if w.Variance() != 0 {
		t.Fatal("variance of empty Welford != 0")
	}
	w.Add(3)
	if w.Variance() != 0 {
		t.Fatal("variance of single sample != 0")
	}
}

func TestWindowPercentile(t *testing.T) {
	w := NewWindow(100)
	for i := 1; i <= 100; i++ {
		w.Add(float64(i))
	}
	if p := w.Percentile(50); math.Abs(p-50.5) > 1e-9 {
		t.Fatalf("P50 = %v, want 50.5", p)
	}
	if p := w.Percentile(0); p != 1 {
		t.Fatalf("P0 = %v, want 1", p)
	}
	if p := w.Percentile(100); p != 100 {
		t.Fatalf("P100 = %v, want 100", p)
	}
}

// TestWindowPercentiles checks the one-sort multi-quantile query
// against individual Percentile calls, including reuse of a caller
// buffer and queries interleaved with further Adds.
func TestWindowPercentiles(t *testing.T) {
	w := NewWindow(64)
	rng := NewRNG(7)
	for i := 0; i < 200; i++ {
		w.Add(rng.Float64())
	}
	ps := []float64{0, 10, 50, 90, 99, 100}
	got := w.Percentiles(nil, ps...)
	for i, p := range ps {
		if want := w.Percentile(p); got[i] != want {
			t.Fatalf("Percentiles[%d] (P%v) = %v, want %v", i, p, want, got[i])
		}
	}
	// Appending into a reused buffer must not disturb earlier entries.
	buf := make([]float64, 0, 8)
	buf = append(buf, -1)
	buf = w.Percentiles(buf, 90, 99)
	if len(buf) != 3 || buf[0] != -1 || buf[1] != w.Percentile(90) || buf[2] != w.Percentile(99) {
		t.Fatalf("Percentiles append = %v", buf)
	}
	if out := NewWindow(4).Percentiles(nil, 50, 99); out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty-window Percentiles = %v, want zeros", out)
	}
}

// sortedPercentile is the reference every selecting percentile must
// reproduce bit for bit: a sorted copy of xs, then the order statistics
// PercentileRank names, interpolated by Lerp.
func sortedPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi, frac := PercentileRank(len(s), p)
	return Lerp(s[lo], s[hi], frac)
}

// TestPercentileBufMatchesPercentile: Percentile, PercentileBuf and
// Window.Percentile select rather than sort, and must equal the sorted
// reference bit for bit at every size from 1 to 257 — across the
// insertion-sort cutoff and many partition rounds — on inputs drawn
// from a continuum, from a handful of values (runs of ties), and with
// NaNs, which sort.Float64s orders first. The caller-owned scratch
// changes where the copy lives, not the result, and xs is left alone.
func TestPercentileBufMatchesPercentile(t *testing.T) {
	rng := NewRNG(9)
	ps := []float64{0, 1, 50, 90, 95, 99, 100}
	draws := map[string]func() float64{
		"continuous": rng.Float64,
		"ties":       func() float64 { return float64(rng.Intn(4)) / 2 },
		"nan":        func() float64 { return []float64{math.NaN(), 1, 2, 3}[rng.Intn(4)] },
	}
	var buf []float64
	for _, name := range []string{"continuous", "ties", "nan"} {
		draw := draws[name]
		for n := 1; n <= 257; n++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw()
			}
			if name == "ties" && n%2 == 0 {
				sort.Float64s(xs) // presorted runs: the classic quickselect worst case
			}
			orig := append([]float64(nil), xs...)
			w := NewWindow(n)
			for _, x := range xs {
				w.Add(x)
			}
			for _, p := range ps {
				want := math.Float64bits(sortedPercentile(xs, p))
				var got float64
				got, buf = PercentileBuf(buf, xs, p)
				for what, v := range map[string]float64{"PercentileBuf": got, "Percentile": Percentile(xs, p), "Window.Percentile": w.Percentile(p)} {
					if math.Float64bits(v) != want {
						t.Fatalf("%s n=%d p%v: %s %v, sorted reference %v", name, n, p, what, v, math.Float64frombits(want))
					}
				}
			}
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("%s n=%d: Percentile reordered its input", name, n)
				}
			}
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile of an empty slice is not 0")
	}
	xs := make([]float64, 25)
	if avg := testing.AllocsPerRun(100, func() { _, buf = PercentileBuf(buf, xs, 95) }); avg != 0 {
		t.Fatalf("PercentileBuf with a grown scratch allocates %.1f times, want 0", avg)
	}
}

// TestWindowPercentileAllocs is the regression test for the reusable
// scratch buffer: safeguard-style percentile queries, and the window
// updates beside them, must not allocate in steady state.
func TestWindowPercentileAllocs(t *testing.T) {
	w := NewWindow(512)
	rng := NewRNG(3)
	for i := 0; i < 512; i++ {
		w.Add(rng.Float64())
	}
	w.Percentile(99) // first query sizes the scratch
	buf := make([]float64, 0, 2)
	if avg := testing.AllocsPerRun(100, func() {
		w.Add(rng.Float64())
		_ = w.Percentile(99)
		buf = w.Percentiles(buf[:0], 90, 99)
	}); avg != 0 {
		t.Fatalf("percentile query allocates %.1f times, want 0", avg)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Add(x)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if m := w.Max(); m != 5 {
		t.Fatalf("Max = %v, want 5", m)
	}
	if m := w.Mean(); m != 4 {
		t.Fatalf("Mean = %v, want 4 (window should hold 3,4,5)", m)
	}
}

func TestWindowEmpty(t *testing.T) {
	w := NewWindow(4)
	if w.Percentile(50) != 0 || w.Mean() != 0 || w.Max() != 0 {
		t.Fatal("empty window statistics should be 0")
	}
	if w.Full() {
		t.Fatal("empty window reports full")
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(2)
	w.Add(1)
	w.Add(2)
	w.Reset()
	if w.Len() != 0 || w.Full() {
		t.Fatal("Reset did not clear window")
	}
}

func TestPercentileSliceHelpers(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
	if Percentile(xs, 0) != 1 {
		t.Fatal("min percentile wrong")
	}
	if Percentile(xs, 100) != 9 {
		t.Fatal("max percentile wrong")
	}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Max(xs) != 9 || Min(xs) != 1 {
		t.Fatal("Max/Min wrong")
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty-slice helpers should return 0")
	}
	// Percentile must not reorder the input.
	if xs[0] != 9 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

// Property: window percentile always lies within [min, max] of the
// retained samples and is monotone in p.
func TestWindowPercentileProperty(t *testing.T) {
	prop := func(raw []float64, cap8 uint8) bool {
		capacity := int(cap8%32) + 1
		w := NewWindow(capacity)
		var vals []float64
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			w.Add(x)
			vals = append(vals, x)
		}
		if len(vals) == 0 {
			return true
		}
		if len(vals) > capacity {
			vals = vals[len(vals)-capacity:]
		}
		lo, hi := Min(vals), Max(vals)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := w.Percentile(p)
			if v < lo-1e-9 || v > hi+1e-9 || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(NewRNG(6), 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[50] {
		t.Fatal("Zipf rank 0 not more popular than rank 50")
	}
	if counts[0] <= counts[10] {
		t.Fatal("Zipf rank 0 not more popular than rank 10")
	}
	// Rank 0 of Zipf(1, 100) has ~19% of the mass.
	frac := float64(counts[0]) / 100000
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("rank-0 mass = %v, want ~0.19", frac)
	}
}

func TestZipfWeightSums(t *testing.T) {
	z := NewZipf(NewRNG(1), 50, 1.2)
	sum := 0.0
	for k := 0; k < z.N(); k++ {
		sum += z.Weight(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf weights sum to %v, want 1", sum)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(NewRNG(1), 0, 1) },
		func() { NewZipf(NewRNG(1), 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid Zipf construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestBetaMeanAndSample(t *testing.T) {
	b := Beta{Alpha: 8, Beta: 2}
	if b.Mean() != 0.8 {
		t.Fatalf("Beta mean = %v, want 0.8", b.Mean())
	}
	rng := NewRNG(9)
	var w Welford
	for i := 0; i < 20000; i++ {
		x := b.Sample(rng)
		if x < 0 || x > 1 {
			t.Fatalf("Beta sample %v out of [0,1]", x)
		}
		w.Add(x)
	}
	if math.Abs(w.Mean()-0.8) > 0.02 {
		t.Fatalf("Beta sample mean = %v, want ~0.8", w.Mean())
	}
}

func TestBetaSampleSmallShape(t *testing.T) {
	b := Beta{Alpha: 0.5, Beta: 0.5}
	rng := NewRNG(10)
	var w Welford
	for i := 0; i < 20000; i++ {
		x := b.Sample(rng)
		if x < 0 || x > 1 {
			t.Fatalf("Beta(0.5,0.5) sample %v out of range", x)
		}
		w.Add(x)
	}
	if math.Abs(w.Mean()-0.5) > 0.02 {
		t.Fatalf("Beta(0.5,0.5) mean = %v, want ~0.5", w.Mean())
	}
}

func TestPoissonMean(t *testing.T) {
	rng := NewRNG(11)
	for _, lambda := range []float64{0.5, 4, 20, 200} {
		var w Welford
		for i := 0; i < 20000; i++ {
			w.Add(float64(Poisson(rng, lambda)))
		}
		if math.Abs(w.Mean()-lambda)/lambda > 0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, w.Mean())
		}
	}
}

// TestPoissonSamplerMatchesPoisson: the sampler only skips math.Exp
// for a repeated rate; over a rate that holds, flips between two
// values, crosses the normal-approximation threshold and goes
// non-positive, it must consume the same RNG draws and return the same
// counts as a fresh Poisson every time.
func TestPoissonSamplerMatchesPoisson(t *testing.T) {
	rates := []float64{0.35, 0.35, 0.35, 1.5, 0.35, 1.5, 1.5, 0, 12, 12, 64, 64.5, 64.5, -1, 0.35}
	ref, rng := NewRNG(21), NewRNG(21)
	var s PoissonSampler
	for i := 0; i < 20000; i++ {
		lambda := rates[(i/7)%len(rates)]
		if want, got := Poisson(ref, lambda), s.Draw(rng, lambda); got != want {
			t.Fatalf("draw %d at rate %v: sampler %d, Poisson %d", i, lambda, got, want)
		}
	}
	if ref.Uint64() != rng.Uint64() {
		t.Fatal("sampler consumed different RNG draws than Poisson")
	}
}

func TestPoissonZero(t *testing.T) {
	if Poisson(NewRNG(1), 0) != 0 || Poisson(NewRNG(1), -3) != 0 {
		t.Fatal("Poisson with non-positive rate should be 0")
	}
}

// Property: Beta samples stay in [0,1] for a range of (integer-ish)
// posterior parameters, as accumulated by the bandit.
func TestBetaRangeProperty(t *testing.T) {
	rng := NewRNG(12)
	prop := func(a, b uint8) bool {
		beta := Beta{Alpha: float64(a%50) + 0.5, Beta: float64(b%50) + 0.5}
		for i := 0; i < 10; i++ {
			x := beta.Sample(rng)
			if x < 0 || x > 1 || math.IsNaN(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
