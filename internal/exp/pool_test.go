package exp

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"ena/internal/arch"
	"ena/internal/noc"
	"ena/internal/obs"
	"ena/internal/workload"
)

// TestParallelForCoversEachIndexOnce: every index runs exactly once for any
// worker count, including more workers than items and none at all.
func TestParallelForCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, workers := range []int{0, 1, 3, 16} {
			hits := make([]int, n)
			parallelFor(n, workers, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestFigure7AblationNoCScalingAcrossGOMAXPROCS: the experiments that fan
// seeded simulations or screened points out over a GOMAXPROCS-bounded pool
// (and scaling, whose series share one communicator per size) return deeply
// equal results serially and with four workers. Each pass gets a fresh
// observation scope, so Fig. 7's shared simulations rerun at its worker
// count instead of coming from the other pass's memo.
func TestFigure7AblationNoCScalingAcrossGOMAXPROCS(t *testing.T) {
	defer obs.SetDefault(obs.Default())
	runAll := func(procs int) []Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		obs.SetDefault(&obs.Scope{})
		return []Result{Figure7(), AblationNoC(), Scaling(), ThermalDSE()}
	}
	serial, wide := runAll(1), runAll(4)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], wide[i]) {
			t.Errorf("%T differs between GOMAXPROCS=1 and 4:\n%s\nvs\n%s", serial[i], serial[i].Render(), wide[i].Render())
		}
	}
}

// TestAblationNoCSharesFigure7Runs: AblationNoC's unshifted-locality rows
// equal Fig. 7's rows and a fresh noc.Compare bit for bit, and its
// point-to-point row equals a fresh SNAP simulation — whether AblationNoC
// runs first in a scope or after Figure7. Within one scope the two
// experiments run 25 NoC simulations, not 32: Fig. 7's six once, plus
// AblationNoC's eighteen shifted-locality runs and its chain run.
func TestAblationNoCSharesFigure7Runs(t *testing.T) {
	defer obs.SetDefault(obs.Default())
	cfg := arch.BestMeanEHP()
	ks := fig7KernelList()
	fresh := map[string]noc.Comparison{}
	for _, k := range ks {
		fresh[k.Name] = noc.Compare(cfg, k, fig7Seed)
	}
	snap, err := workload.ByName("SNAP")
	if err != nil {
		t.Fatal(err)
	}
	p2p := noc.Simulate(cfg, snap, noc.Options{Seed: fig7Seed})
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	check := func(when string, a AblationNoCResult, f Fig7Result) {
		fig := map[string]noc.Comparison{}
		for _, c := range f.Rows {
			fig[c.Kernel] = c
			if c != fresh[c.Kernel] {
				t.Errorf("%s: Figure7 %s row %+v, fresh Compare %+v", when, c.Kernel, c, fresh[c.Kernel])
			}
		}
		n := 0
		for _, row := range a.Rows {
			if row.LocalityDelta != 0 {
				continue
			}
			n++
			c := fig[row.Kernel]
			if !same(row.PerfVsMono, c.PerfVsMonolith) || !same(row.OutOfChiplet, c.OutOfChiplet) {
				t.Errorf("%s: %s unshifted row (perf %v, out %v) differs from Fig. 7 (perf %v, out %v)",
					when, row.Kernel, row.PerfVsMono, row.OutOfChiplet, c.PerfVsMonolith, c.OutOfChiplet)
			}
		}
		if n != len(ks) {
			t.Errorf("%s: %d unshifted rows, want %d", when, n, len(ks))
		}
		for _, row := range a.Topology {
			if row.Topology == noc.PointToPoint.String() &&
				(!same(row.SustainedTBps, p2p.SustainedGBps/1000) || !same(row.MeanLatencyNs, p2p.MeanLatencyNs)) {
				t.Errorf("%s: point-to-point row %+v differs from a fresh SNAP run (%v GB/s, %v ns)",
					when, row, p2p.SustainedGBps, p2p.MeanLatencyNs)
			}
		}
	}

	reg := obs.NewRegistry()
	obs.SetDefault(&obs.Scope{Reg: reg})
	a := AblationNoC()
	check("ablation first", a, Figure7())
	// Every simulation here runs noc's default request count, so the
	// scope's counter is 25 times one run's.
	if got, want := reg.Counter("noc.requests").Value(), int64(25*p2p.Requests); got != want {
		t.Errorf("noc.requests = %d after Figure7 and AblationNoC, want %d (25 simulations)", got, want)
	}

	obs.SetDefault(&obs.Scope{})
	f := Figure7()
	check("Figure7 first", AblationNoC(), f)
}
