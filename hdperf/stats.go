package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie strictly above a latency before
// it may be called the tail: fewer than ten and the "percentile" is one
// unlucky sample, not a property of the run.
const tailBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum returns the total of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tailStat is a latency tail reported with the evidence behind it: the
// percentile it sits at, how many samples lie strictly above it, and the
// sample count.
type tailStat struct {
	Value      float64
	Percentile float64
	Beyond     int
	N          int
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%.4g (n=%d, %d beyond)", t.Percentile, t.N, t.Beyond)
}

// tail returns the highest percentile of xs that has at least `beyond`
// samples strictly above it: the largest sample value v with
// #{x > v} ≥ beyond. Ties push it down, never up — a value shared by the
// top samples does not count as having them beyond it. When no sample
// qualifies (too few samples, or the top ones all tie with everything
// below) the tail is the maximum, reported at p100 with 0 beyond, so a
// reader sees that the rule could not be met.
func tail(xs []float64, beyond int) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sorted(xs)
	if n > beyond {
		// v must be strictly below s[n-beyond]: then every sample from
		// index n-beyond up lies beyond it.
		limit := s[n-beyond]
		i := sort.SearchFloat64s(s, limit) - 1 // last index with s[i] < limit
		if i >= 0 {
			v := s[i]
			atOrBelow := i + 1
			return tailStat{Value: v, Percentile: 100 * float64(atOrBelow) / float64(n), Beyond: n - atOrBelow, N: n}
		}
	}
	return tailStat{Value: s[n-1], Percentile: 100, Beyond: 0, N: n}
}
