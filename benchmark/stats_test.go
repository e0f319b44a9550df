package main

import (
	"math"
	"testing"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true}, {999, 0.95, true}, {200, 0.95, true}, {199, 0.90, true},
		{100, 0.90, true}, {99, 0.50, true}, {20, 0.50, true}, {19, 0, false},
	}
	for _, c := range cases {
		q, ok := highestPercentile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesP99BelowThousandSamples(t *testing.T) {
	if v, ok := percentile(ramp(999), 0.99); ok {
		t.Fatalf("p99 of 999 samples = %v; want a refusal", v)
	}
	if _, err := summarize(ramp(999), 0.99); err == nil {
		t.Fatal("summarize accepted a p99 of 999 samples")
	}
	v, ok := percentile(ramp(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
}

func TestSummarizeCountsFailuresBeyondTheTail(t *testing.T) {
	xs := ramp(1000)
	for i := 0; i < 20; i++ {
		xs[i*50] = math.Inf(1)
	}
	s, err := summarize(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failed != 20 || !math.IsInf(s.TailMs, 1) {
		t.Fatalf("failed %d, p99 %v; want 20 failures pushing the p99 to +Inf", s.Failed, s.TailMs)
	}
	if s.HighestQ != "p99" {
		t.Fatalf("highest supported percentile %s, want p99", s.HighestQ)
	}
}

func TestSummarizeMaxForSmallSamples(t *testing.T) {
	s, err := summarize([]float64{4.1, 3.9, 4.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.P50Ms != 4.0 || s.TailMs != 4.1 || s.TailQ != "max" || s.HighestQ != "" {
		t.Fatalf("got %+v; want median 4.0, max 4.1 and no supported percentile", s)
	}
}
