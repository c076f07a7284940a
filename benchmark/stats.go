package main

import (
	"fmt"
	"math"
	"sort"
)

// summary describes a set of timing samples the way the benchmark
// reports them: the median, the quartiles, the sample
// count, and the highest percentile that still has at least ten samples
// beyond it (absent below twenty samples).
type summary struct {
	n              int
	q1, median, q3 float64
	tailPct        float64 // 0 when there are too few samples for a tail
	tail           float64
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	out := summary{n: n, q1: quantile(s, 0.25), median: quantile(s, 0.5), q3: quantile(s, 0.75)}
	if n >= 20 {
		i := n - 11 // exactly ten samples lie beyond s[i]
		out.tailPct = 100 * float64(i+1) / float64(n)
		out.tail = s[i]
	}
	return out
}

// quantile interpolates linearly between the order statistics of the
// sorted samples.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(samples []float64) float64 { return summarize(samples).median }

// lowest is the least disturbed of repeated timings of the same work.
func lowest(samples []float64) float64 {
	best := math.Inf(1)
	for _, s := range samples {
		best = math.Min(best, s)
	}
	return best
}

func (s summary) String() string {
	out := fmt.Sprintf("median %.6g  q1 %.6g  q3 %.6g  n=%d", s.median, s.q1, s.q3, s.n)
	if s.tailPct > 0 {
		out += fmt.Sprintf("  p%.1f %.6g", s.tailPct, s.tail)
	}
	return out
}
