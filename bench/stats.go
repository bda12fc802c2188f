package main

import (
	"math"
	"sort"
	"time"
)

// samples is one latency class: every client-observed duration of one kind
// of operation during a measured phase.
type samples []time.Duration

func (s *samples) add(d time.Duration) { *s = append(*s, d) }

// percentileMs returns the p-th percentile (nearest rank) in milliseconds,
// or 0 for an empty class.
func (s samples) percentileMs(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank]) / float64(time.Millisecond)
}

func (s samples) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// quartiles returns the first quartile, median and third quartile of vals by
// the exclusive method, the one Python's statistics.quantiles(vals, n=4)
// uses and therefore the one the acceptance check of BENCHMARK.json uses.
func quartiles(vals []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	m := len(v)
	if m == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func usPer(d time.Duration, n int) float64 {
	return ratio(float64(d)/float64(time.Microsecond), float64(n))
}

func nsPer(d time.Duration, n int64) float64 {
	return ratio(float64(d), float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
