package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs 1,000 samples, a p95 200, a p90 100.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by nearest rank.
// It refuses (ok false) when fewer than minBeyond samples lie beyond it.
// Failed operations are recorded as +Inf, so they count as beyond any limit.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], true
}

// highestPercentile returns the highest of p99, p95, p90 and p50 that n
// samples support, and false when not even the median has ten samples
// beyond it.
func highestPercentile(n int) (q float64, ok bool) {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.50} {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// median of xs (which it sorts); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summary is a latency sample (milliseconds; a failed operation is +Inf)
// reduced to the figures the benchmark reports: the median, the tail at the
// workload's fixed percentile, and the highest percentile the sample
// supports, each with the sample count.
type summary struct {
	N        int     `json:"n"`
	Failed   int     `json:"failed"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	TailQ    string  `json:"tail_percentile"`
	TailMs   float64 `json:"tail_ms"`
	HighestQ string  `json:"highest_percentile,omitempty"`
	HighestV float64 `json:"highest_ms,omitempty"`
}

// summarize reduces the sample, reporting its tail at quantile q (q >= 1
// reports the maximum, for samples too small for any percentile). It fails
// when the sample cannot support q: a run too short for its percentile is
// invalid rather than quietly less precise.
func summarize(sample []float64, q float64) (summary, error) {
	xs := append([]float64(nil), sample...)
	s := summary{N: len(xs), TailQ: pctName(q)}
	if s.N == 0 {
		return s, fmt.Errorf("no samples")
	}
	s.P50Ms = median(xs) // sorts xs
	var sum float64
	for _, v := range xs {
		if math.IsInf(v, 1) {
			s.Failed++
		} else {
			sum += v
		}
	}
	if s.N > s.Failed {
		s.MeanMs = sum / float64(s.N-s.Failed)
	}
	if hq, ok := highestPercentile(s.N); ok {
		s.HighestQ = pctName(hq)
		s.HighestV, _ = percentile(xs, hq)
	}
	if q >= 1 {
		s.TailMs = xs[len(xs)-1]
		return s, nil
	}
	var ok bool
	if s.TailMs, ok = percentile(xs, q); !ok {
		return s, fmt.Errorf("%d samples cannot support a %s (needs %d beyond it)", s.N, pctName(q), minBeyond)
	}
	return s, nil
}

// pctName renders a quantile as p50 or p99, or max for q >= 1.
func pctName(q float64) string {
	if q >= 1 {
		return "max"
	}
	return fmt.Sprintf("p%g", math.Round(q*1000)/10)
}
