package main

import (
	"math"
	"sort"
)

// spread is what the benchmark prints beside a gated time: the gated
// statistic itself plus the information-only ones.
type spread struct {
	// FastestQuarter is the mean of the fastest ceil(n/4) samples — the
	// gated statistic. Host noise on a shared box is additive and lasts
	// many iterations, so the fast tail repeats where the median does
	// not (see README, "Noise study").
	FastestQuarter float64 `json:"fastest_quarter"`
	Median         float64 `json:"median"`
	// IQR is the distance between the first and third quartiles.
	IQR float64 `json:"iqr"`
	// Upper is the highest percentile that still has at least ten
	// samples beyond it, and UpperPct its rank; both 0 below 20
	// samples, where no such percentile is worth printing.
	Upper    float64 `json:"upper"`
	UpperPct int     `json:"upper_pct"`
	N        int     `json:"n"`
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// fastestQuarter is the mean of the fastest ceil(n/4) samples; 0 for
// no samples.
func fastestQuarter(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sorted(samples)
	k := (len(s) + 3) / 4
	var sum float64
	for _, v := range s[:k] {
		sum += v
	}
	return sum / float64(k)
}

// quantile interpolates linearly between the order statistics of a
// sorted sample, q in [0, 1].
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(samples []float64) float64 { return quantile(sorted(samples), 0.5) }

func minOf(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	m := samples[0]
	for _, v := range samples[1:] {
		m = min(m, v)
	}
	return m
}

func summarize(samples []float64) spread {
	s := sorted(samples)
	sp := spread{
		FastestQuarter: fastestQuarter(s),
		Median:         quantile(s, 0.5),
		IQR:            quantile(s, 0.75) - quantile(s, 0.25),
		N:              len(s),
	}
	if len(s) >= 20 {
		k := len(s) - 10 // the k-th smallest has exactly ten samples beyond it
		sp.Upper = s[k-1]
		sp.UpperPct = 100 * k / len(s)
	}
	return sp
}
