package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"ena/internal/obs"
)

// TestMain lets the transport probe re-execute the test binary as its echo
// server, as it re-executes enabench in a real run.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "echo" {
		os.Exit(runEcho(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// Every workload BENCHMARK.json gates must be one the benchmark runs; the
// benchmark may run more (simulate-store is reported but not gated).
func TestSpecNamesKnownWorkloads(t *testing.T) {
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range readSpec(t).Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
}

// sameMetrics checks that got holds exactly the declared metrics, each
// with its declared unit.
func sameMetrics(t *testing.T, kind string, declared []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	for _, d := range declared {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s metric %s not emitted", kind, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(declared) {
		t.Errorf("%d %s metrics emitted, %d declared", len(got), kind, len(declared))
	}
}

// A scaled-down traced simulate-hot run, against enaserve built from this
// checkout, must emit every metric BENCHMARK.json names, with its unit, and
// pass its correctness checks.
func TestSmokeRunEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs enaserve")
	}
	s := readSpec(t)
	ctx := context.Background()
	dir := t.TempDir()
	if err := buildBinaries(ctx, "..", dir); err != nil {
		t.Fatal(err)
	}
	e := &env{
		root: "..", bins: dir, tmp: dir, seed: 1, seconds: 1, trace: true,
		tracer: obs.NewTracer(), workers: 2, client: newClient(2), scale: 0.02,
	}
	defer e.client.CloseIdleConnections()
	r := &result{Workload: "simulate-hot", Metrics: map[string]metric{}, tailQ: 0.99}
	if err := runSimulateHot(ctx, e, r); err != nil {
		t.Fatal(err)
	}
	if r.Failed > 0 || len(r.Checks) > 0 {
		t.Fatalf("%d of %d failed: %v", r.Failed, r.Attempted, r.Checks)
	}
	sameMetrics(t, "end-to-end", s.EndToEnd, r.Metrics)
	sameMetrics(t, "per-layer", s.PerLayer, r.Layers)
	if r.Budget == nil || len(r.Budget.Rows) != 4 {
		t.Fatalf("latency budget %+v; want four rows", r.Budget)
	}
	if e.tracer.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
}
