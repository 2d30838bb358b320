package main

import (
	"fmt"
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a reported tail percentile.
// With fewer, the percentile is an extrapolation from a handful of points,
// so the benchmark reports a lower percentile instead and names it.
const tailMin = 10

// quantile is an exact nearest-rank percentile of raw samples: the value
// at rank ceil(q·n) of the sorted samples. It is computed from every
// sample, never from histogram buckets.
type quantile struct {
	Q     float64 // the percentile actually reported, in [0, 1]
	Value float64
	N     int // sample count
}

// label names the percentile as printed, e.g. "p99" or "p98.73".
func (q quantile) label() string {
	p := q.Q * 100
	if p == math.Trunc(p) {
		return fmt.Sprintf("p%.0f", p)
	}
	return fmt.Sprintf("p%.2f", p)
}

// exactQuantile returns the nearest-rank q-quantile of sorted (ascending)
// samples. For a tail quantile (q > 0.5) with fewer than tailMin samples
// beyond it, q drops to the highest percentile that has tailMin beyond it;
// a sample that small (n ≤ tailMin) reports its median. n = 0 gives a
// zero value with N = 0.
func exactQuantile(sorted []float64, q float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{Q: q}
	}
	rank := int(math.Ceil(q * float64(n)))
	if q > 0.5 && n-rank < tailMin {
		rank = n - tailMin
		if rank < (n+1)/2 {
			rank = (n + 1) / 2
		}
		q = float64(rank) / float64(n)
	}
	if rank < 1 {
		rank = 1
	}
	return quantile{Q: q, Value: sorted[rank-1], N: n}
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the midpoint median of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// splitmix is the splitmix64 finalizer: a counter-based hash the benchmark
// uses for every seeded draw (arrival gaps, class picks, input picks,
// oracle samples), so each draw is a pure function of (seed, stream, i)
// and no generator state is shared between goroutines.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw is draw i of stream s under seed: a uniform 64-bit value.
func draw(seed int64, s, i uint64) uint64 {
	return splitmix(splitmix(splitmix(uint64(seed))^s) ^ i)
}

// unit maps draw i of stream s to a uniform float64 in (0, 1].
func unit(seed int64, s, i uint64) float64 {
	return (float64(draw(seed, s, i)>>11) + 1) / (1 << 53)
}

// Streams of seeded draws; each seeded decision uses its own.
const (
	streamGap uint64 = iota + 1
	streamClass
	streamInput
	streamSample
)
