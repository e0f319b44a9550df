package serving

import (
	"math"
	"strings"
	"testing"
)

// flatService is a batch-size-independent service time (a pathological
// server where batching is free).
func flatService(ns float64) func(int) float64 {
	return func(int) float64 { return ns }
}

// linearService models per-request cost plus fixed launch overhead, the
// typical shape of a bandwidth-bound inference batch.
func linearService(baseNs, perReqNs float64) func(int) float64 {
	return func(b int) float64 { return baseNs + perReqNs*float64(b) }
}

func TestSimulateDeterministic(t *testing.T) {
	opt := Options{QPS: 5e4, MaxBatch: 8, Requests: 5000, Seed: 42,
		ServiceNs: linearService(2000, 500)}
	a, err := Simulate(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same options produced different results:\n%+v\n%+v", a, b)
	}
	c, err := Simulate(Options{QPS: 5e4, MaxBatch: 8, Requests: 5000, Seed: 43,
		ServiceNs: linearService(2000, 500)})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds produced identical results; arrival process is not seeded")
	}
}

func TestSimulateLowLoad(t *testing.T) {
	// Offered load far below capacity: requests rarely queue, so batches
	// stay near 1 and latency sits at the solo service time.
	const svcNs = 1000.0
	res, err := Simulate(Options{QPS: 1e4, MaxBatch: 16, Requests: 20000, Seed: 1,
		ServiceNs: flatService(svcNs)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 20000 {
		t.Fatalf("completed %d of 20000 requests", res.Requests)
	}
	if res.MeanBatch > 1.05 {
		t.Errorf("low load should not batch: mean batch %.3f", res.MeanBatch)
	}
	if res.P50Ns < svcNs || res.P50Ns > 1.2*svcNs {
		t.Errorf("low-load p50 %.1f ns, want ~%v ns", res.P50Ns, svcNs)
	}
	// rho = lambda * E[S] = 1e4/s * 1us = 0.01.
	if math.Abs(res.Utilization-0.01) > 0.005 {
		t.Errorf("utilization %.4f, want ~0.01", res.Utilization)
	}
	if math.Abs(res.AchievedRPS-1e4)/1e4 > 0.1 {
		t.Errorf("achieved %.0f RPS, offered 10000", res.AchievedRPS)
	}
}

func TestSimulateOverloadBatches(t *testing.T) {
	// Offered load beyond solo capacity (1/2us = 5e5 solo RPS, offered 2e6):
	// the queue forces full batches and throughput lands at the batched
	// capacity, not the solo one.
	svc := linearService(1500, 500) // batch 8: 5.5us -> ~1.45e6 RPS capacity
	res, err := Simulate(Options{QPS: 2e6, MaxBatch: 8, Requests: 50000, Seed: 7,
		ServiceNs: svc})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanBatch < 7 {
		t.Errorf("overload should fill batches: mean batch %.2f", res.MeanBatch)
	}
	if res.Utilization < 0.98 {
		t.Errorf("overloaded server should be saturated: utilization %.3f", res.Utilization)
	}
	capacity := 8 / (svc(8) * 1e-9)
	if math.Abs(res.AchievedRPS-capacity)/capacity > 0.05 {
		t.Errorf("achieved %.0f RPS, want batched capacity ~%.0f", res.AchievedRPS, capacity)
	}
	if !(res.P50Ns <= res.P95Ns && res.P95Ns <= res.P99Ns && res.P99Ns <= res.MaxNs) {
		t.Errorf("percentiles out of order: p50 %.0f p95 %.0f p99 %.0f max %.0f",
			res.P50Ns, res.P95Ns, res.P99Ns, res.MaxNs)
	}
}

func TestSimulateAccounting(t *testing.T) {
	res, err := Simulate(Options{QPS: 1e5, MaxBatch: 4, Requests: 1000, Seed: 3,
		ServiceNs: linearService(800, 200)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1000 {
		t.Errorf("Requests = %d, want 1000", res.Requests)
	}
	if res.Batches < 250 || res.Batches > 1000 {
		t.Errorf("Batches = %d, want within [ceil(1000/4), 1000]", res.Batches)
	}
	if got := float64(res.Requests) / float64(res.Batches); math.Abs(got-res.MeanBatch) > 1e-12 {
		t.Errorf("MeanBatch %.6f inconsistent with Requests/Batches %.6f", res.MeanBatch, got)
	}
	if res.MeanNs <= 0 || res.MakespanNs <= 0 || res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("implausible accounting: %+v", res)
	}
	// Every latency includes at least the smallest batch's service time.
	if res.P50Ns < 1000 {
		t.Errorf("p50 %.1f ns below the minimum service time 1000 ns", res.P50Ns)
	}
}

func TestOptionsValidate(t *testing.T) {
	ok := Options{QPS: 1e4, MaxBatch: 4, Requests: 100, ServiceNs: flatService(100)}
	cases := []struct {
		name string
		mod  func(*Options)
		want string
	}{
		{"zero qps", func(o *Options) { o.QPS = 0 }, "QPS must be positive"},
		{"negative qps", func(o *Options) { o.QPS = -1 }, "QPS must be positive"},
		{"nan qps", func(o *Options) { o.QPS = math.NaN() }, "QPS must be positive"},
		{"inf qps", func(o *Options) { o.QPS = math.Inf(1) }, "QPS must be positive"},
		{"overflowing horizon", func(o *Options) { o.QPS = 1e-300 }, "arrival times overflow"},
		{"zero batch", func(o *Options) { o.MaxBatch = 0 }, "MaxBatch must be at least 1"},
		{"huge batch", func(o *Options) { o.MaxBatch = maxBatchLimit + 1 }, "too large"},
		{"zero requests", func(o *Options) { o.Requests = 0 }, "Requests must be at least 1"},
		{"huge requests", func(o *Options) { o.Requests = maxRequests + 1 }, "too large"},
		{"nil service", func(o *Options) { o.ServiceNs = nil }, "ServiceNs callback is required"},
		{"zero service", func(o *Options) { o.ServiceNs = flatService(0) }, "ServiceNs(1) must be positive"},
		{"nan service", func(o *Options) { o.ServiceNs = flatService(math.NaN()) }, "must be positive"},
		{"negative service at batch", func(o *Options) {
			o.ServiceNs = func(b int) float64 { return 100 - 30*float64(b) }
		}, "ServiceNs(4) must be positive"},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := ok
			tc.mod(&o)
			_, err := Simulate(o)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
