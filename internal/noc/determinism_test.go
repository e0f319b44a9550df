package noc

// The closed-loop NoC simulation must be a pure function of (config, kernel,
// options): repeat runs, different GOMAXPROCS settings, and attached
// instrumentation may not change a single result bit. This locked in a real
// fix — per-link queues used to live in a map whose iteration order
// randomized the float summation behind LinkUtilization.

import (
	"runtime"
	"testing"

	"ena/internal/arch"
	"ena/internal/obs"
	"ena/internal/workload"
)

func TestSimulateRepeatable(t *testing.T) {
	cfg := arch.BestMeanEHP()
	for _, k := range []workload.Kernel{workload.CoMD(), workload.XSBench()} {
		opt := Options{Seed: 7, Requests: 20_000}
		a := Simulate(cfg, k, opt)
		b := Simulate(cfg, k, opt)
		if a != b {
			t.Errorf("%s: repeat run differs:\n a=%+v\n b=%+v", k.Name, a, b)
		}
	}
}

func TestSimulateBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	cfg := arch.BestMeanEHP()
	k := workload.SNAP()
	opt := Options{Seed: 3, Requests: 20_000, Topology: Chain}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	runtime.GOMAXPROCS(1)
	a := Simulate(cfg, k, opt)
	runtime.GOMAXPROCS(8)
	b := Simulate(cfg, k, opt)
	if a != b {
		t.Errorf("GOMAXPROCS changed the simulation:\n 1: %+v\n 8: %+v", a, b)
	}
}

func TestSimulateInstrumentationDoesNotChangeResults(t *testing.T) {
	cfg := arch.BestMeanEHP()
	k := workload.MiniAMR()
	plain := Simulate(cfg, k, Options{Seed: 11, Requests: 20_000})
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	observed := Simulate(cfg, k, Options{Seed: 11, Requests: 20_000, Reg: reg, Tracer: tr})
	if plain != observed {
		t.Errorf("instrumentation changed the result:\n plain=%+v\n obs=%+v", plain, observed)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["noc.requests"]; got != int64(observed.Requests) {
		t.Errorf("noc.requests = %d, want %d", got, observed.Requests)
	}
	if snap.Counters["noc.sim.events"] == 0 {
		t.Error("event kernel not instrumented")
	}
	if snap.Histograms["noc.latency_ns"].Count != uint64(observed.Requests) {
		t.Error("latency histogram incomplete")
	}
	if tr.Len() == 0 {
		t.Error("no trace events sampled")
	}
}
