package ena

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each BenchmarkFigureN/
// BenchmarkTableN executes the corresponding experiment end-to-end and, on
// the first iteration, prints the paper-style rows/series so a bench run
// doubles as a reproduction log. Micro-benchmarks for the underlying
// simulators follow.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ena/internal/arch"
	"ena/internal/cluster"
	"ena/internal/core"
	"ena/internal/dram"
	"ena/internal/dse"
	"ena/internal/event"
	"ena/internal/exp"
	"ena/internal/fabric"
	"ena/internal/noc"
	"ena/internal/obs"
	"ena/internal/perf"
	"ena/internal/power"
	"ena/internal/ras"
	"ena/internal/service"
	"ena/internal/store"
	"ena/internal/surrogate"
	"ena/internal/thermal"
	"ena/internal/trace"
	"ena/internal/workload"
)

// benchExperiment runs one registered experiment per iteration, logging its
// rendered output once. Each iteration gets a fresh observation scope, so
// Fig. 7 and the NoC ablation pay for the simulations they share (memoized
// per scope) every time, as one enasim run does.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	defer obs.SetDefault(obs.Default())
	var out string
	for i := 0; i < b.N; i++ {
		obs.SetDefault(&obs.Scope{})
		out = e.Run().Render()
	}
	b.StopTimer()
	if out != "" {
		b.Logf("\n%s", out)
	}
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "fig9") }

// Figure 10/11 run 16+ full thermal solves per iteration; they are the
// heavyweight entries of the suite.
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }

func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkTable2 measures the full Table II derivation — the baseline and
// optimized design-space sweeps plus the per-kernel benefit rows — rather
// than the memoized exp harness, so the sweep-level evaluation reuse is
// visible in the recorded trajectory.
func BenchmarkTable2(b *testing.B) {
	var rows []TableIIRow
	for i := 0; i < b.N; i++ {
		rows = TableII(DefaultSpace(), Workloads(), NodePowerBudgetW)
	}
	b.StopTimer()
	if len(rows) == 0 {
		b.Fatal("empty Table II")
	}
}

func BenchmarkAblationNoC(b *testing.B)       { benchExperiment(b, "ablation-noc") }
func BenchmarkAblationMemPolicy(b *testing.B) { benchExperiment(b, "ablation-mem") }
func BenchmarkRAS(b *testing.B)               { benchExperiment(b, "ras") }

// --- micro-benchmarks of the substrates ---

// BenchmarkSimulateNode measures one high-level node simulation (the unit of
// work the DSE performs thousands of times).
func BenchmarkSimulateNode(b *testing.B) {
	cfg := arch.BestMeanEHP()
	k := workload.LULESH()
	for i := 0; i < b.N; i++ {
		core.Simulate(cfg, k, core.Options{})
	}
}

// BenchmarkRooflineEstimate measures the analytic performance model alone.
func BenchmarkRooflineEstimate(b *testing.B) {
	cfg := arch.BestMeanEHP()
	k := workload.CoMD()
	env := perf.DefaultEnv(cfg, k)
	for i := 0; i < b.N; i++ {
		perf.Estimate(cfg, k, env)
	}
}

// BenchmarkPowerModel measures the component power model alone.
func BenchmarkPowerModel(b *testing.B) {
	cfg := arch.BestMeanEHP()
	d := power.Demand{Activity: 0.6, TrafficTBps: 2, ExtTrafficTBps: 0.4, RemoteFrac: 0.5}
	for i := 0; i < b.N; i++ {
		power.Compute(cfg, d)
	}
}

// BenchmarkDSEExploration measures a full design-space sweep (the §V
// "over a thousand hardware configurations" analysis).
func BenchmarkDSEExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Explore(DefaultSpace(), Workloads(), NodePowerBudgetW, 0)
	}
}

// expandedBenchSpace is the paper grid crossed with every packaging axis —
// 3 chiplet counts x 3 HBM stack heights x 3 external-chain depths, 27x the
// default space (13230 points). The scale where exhaustive sweeps stop being
// free and the surrogate explorer earns its keep.
func expandedBenchSpace() Space {
	s := DefaultSpace()
	s.GPUChiplets = []int{2, 4, 8}
	s.HBMStackGBs = []float64{8, 16, 32}
	s.ExtModules = []int{2, 3, 4}
	return s
}

// surrogateBenchOptions is the tuned acquisition configuration the surrogate
// benchmarks and speedup guard share: a 2% evaluation budget in three large
// batches, with a lean forest so model overhead stays far below the
// evaluation cost it saves.
func surrogateBenchOptions() SurrogateOptions {
	return SurrogateOptions{
		Budget: 264, Seed: 1, BatchSize: 128, InitEvals: 128,
		Trees: 12, MaxDepth: 10, CandidatePool: 1024,
	}
}

// BenchmarkExpandedExplore measures the exhaustive sweep over the expanded
// packaging space — the baseline BenchmarkSurrogateExplore is held against.
func BenchmarkExpandedExplore(b *testing.B) {
	space := expandedBenchSpace()
	ks := Workloads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Explore(space, ks, NodePowerBudgetW, 0)
	}
}

// BenchmarkSurrogateExplore measures a surrogate-guided exploration of the
// same expanded space: model fitting, acquisition and a 2% evaluation
// budget. Its ns/op must stay well under a quarter of
// BenchmarkExpandedExplore's — the sample-efficiency win the explorer
// exists for.
func BenchmarkSurrogateExplore(b *testing.B) {
	space := expandedBenchSpace()
	ks := Workloads()
	opts := surrogateBenchOptions()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExploreSurrogate(ctx, space, ks, NodePowerBudgetW, 0, opts, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurrogateJob measures one surrogate job as the service runs it:
// zero Options except the 264-point evaluation budget (24 trees, 16-point
// batches, 2048-candidate pool) on the expanded packaging space, evaluating
// through a LocalEvaluator over a warm PerfCache. Evaluation is then cheap,
// so ns/op and allocs/op are dominated by the forest fits and acquisition.
func BenchmarkSurrogateJob(b *testing.B) {
	space := expandedBenchSpace()
	ks := Workloads()
	so := surrogate.Options{Budget: 264, Seed: 1}
	ev := surrogate.LocalEvaluator(ks, NodePowerBudgetW, 0, dse.NewPerfCache())
	ctx := context.Background()
	if _, err := surrogate.Explore(ctx, space, ks, NodePowerBudgetW, 0, so, dse.Instr{}, ev); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surrogate.Explore(ctx, space, ks, NodePowerBudgetW, 0, so, dse.Instr{}, ev); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSurrogateSpeedupExpanded is the wall-clock acceptance guard behind
// BenchmarkSurrogateExplore: one exhaustive sweep of the expanded packaging
// space against one surrogate run. The bench snapshots pin the headline >=4x
// ratio; this single-shot check asserts a conservative 2x so scheduler noise
// on loaded CI machines cannot flake it while still catching any real
// regression of the surrogate's overhead.
func TestSurrogateSpeedupExpanded(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short mode")
	}
	space := expandedBenchSpace()
	ks := Workloads()

	start := time.Now()
	Explore(space, ks, NodePowerBudgetW, 0)
	exhaustive := time.Since(start)

	start = time.Now()
	res, err := ExploreSurrogate(context.Background(), space, ks, NodePowerBudgetW, 0,
		surrogateBenchOptions(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	surrogate := time.Since(start)

	if len(res.Trajectory) > 264 {
		t.Fatalf("surrogate evaluated %d points, budget 264", len(res.Trajectory))
	}
	if ratio := float64(exhaustive) / float64(surrogate); ratio < 2 {
		t.Errorf("surrogate %v vs exhaustive %v = %.1fx speedup, want >= 2x (benchmarks pin >= 4x)",
			surrogate, exhaustive, ratio)
	}
}

// BenchmarkNoCSimulation measures the event-driven chiplet-network model.
func BenchmarkNoCSimulation(b *testing.B) {
	cfg := arch.BestMeanEHP()
	k := workload.XSBench()
	for i := 0; i < b.N; i++ {
		noc.Simulate(cfg, k, noc.Options{Seed: int64(i), Requests: 50_000})
	}
}

// BenchmarkEventKernel measures steady-state scheduling on the discrete-event
// kernel: 256 concurrent event chains, each op one After + one dispatch —
// the inner loop of the NoC and memory-system simulators. The interesting
// column is allocs/op, which must stay at ~0 in steady state.
func BenchmarkEventKernel(b *testing.B) {
	s := event.NewSim()
	const chains = 256
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			s.After(float64(1+remaining%7), tick)
		}
	}
	for i := 0; i < chains; i++ {
		s.After(float64(i%5), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(uint64(b.N))
}

// BenchmarkEventKernelNoC is BenchmarkEventKernel at the NoC simulator's
// shape: 8,192 concurrent chains, each rescheduling itself after a
// continuous delay of 200–1,700 cycles, so keys rarely tie and the queue
// stays deep. Every chain fires a few times before the timer starts, so
// the result is the steady state at any b.N.
func BenchmarkEventKernelNoC(b *testing.B) {
	s := event.NewSim()
	const chains = 8192
	delays := make([]float64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i] = 200 + 1500*rng.Float64()
	}
	const warm = 4 * chains
	remaining := warm + b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			s.After(delays[remaining%len(delays)], tick)
		}
	}
	for i := 0; i < chains; i++ {
		s.After(delays[i%len(delays)], tick)
	}
	s.Run(warm)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(uint64(b.N))
}

// BenchmarkThermalSolve measures one steady-state package solve.
func BenchmarkThermalSolve(b *testing.B) {
	cfg := arch.BestMeanEHP()
	k := workload.CoMD()
	r := core.Simulate(cfg, k, core.Options{})
	pa := exp.AssignThermalPower(cfg, r)
	fp := thermal.EHPFloorplan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.Solve(fp, pa, thermal.DefaultAmbientC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceAnalysis measures the reuse-distance profiler.
func BenchmarkTraceAnalysis(b *testing.B) {
	tr := workload.CoMD().Trace(1, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Analyze(tr)
	}
}

// BenchmarkTraceGeneration measures synthetic workload trace production.
func BenchmarkTraceGeneration(b *testing.B) {
	k := workload.MiniAMR()
	for i := 0; i < b.N; i++ {
		k.Trace(int64(i), 10_000)
	}
}

func BenchmarkMigration(b *testing.B) { benchExperiment(b, "migration") }
func BenchmarkReconfig(b *testing.B)  { benchExperiment(b, "reconfig") }

// BenchmarkFailureInjection measures the Monte Carlo checkpoint simulator.
func BenchmarkFailureInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ras.SimulateFailures(ras.FailSimConfig{
			SystemMTTFMins: 112,
			IntervalMins:   21,
			CheckpointMins: 2,
			JobWorkMins:    7 * 24 * 60,
			Seed:           int64(i + 1),
		})
	}
}

func BenchmarkAblationThermalDSE(b *testing.B) { benchExperiment(b, "ablation-thermal") }

func BenchmarkAblationDRAM(b *testing.B)   { benchExperiment(b, "ablation-dram") }
func BenchmarkAblationExtNet(b *testing.B) { benchExperiment(b, "ablation-extnet") }

// BenchmarkDRAMChannel measures raw bank-level channel throughput.
func BenchmarkDRAMChannel(b *testing.B) {
	tr := workload.MiniAMR().Trace(1, 30_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := dram.NewChannel(16, dram.DefaultTiming(), 70)
		if err != nil {
			b.Fatal(err)
		}
		dram.Replay(ch, tr, ch.PeakGBps())
	}
}

func BenchmarkAblationYield(b *testing.B) { benchExperiment(b, "ablation-yield") }

func BenchmarkApps(b *testing.B) { benchExperiment(b, "apps") }

// BenchmarkFabricScaling measures the machine-scale strong/weak scaling
// sweep: every topology kind x mode x kernel x size up to the §V-F 100k-node
// machine through the analytic collective cost model.
func BenchmarkFabricScaling(b *testing.B) { benchExperiment(b, "scaling") }

// BenchmarkFabricResilience measures the whole-node-failure surface on the
// 8x8x8 torus, including the BFS rerouting around each victim set.
func BenchmarkFabricResilience(b *testing.B) { benchExperiment(b, "fabric-resilience") }

// BenchmarkFabricReplay measures one event-driven all-to-all replay on a
// 64-node torus — the brute-force model the property tests pin the analytic
// costs against.
func BenchmarkFabricReplay(b *testing.B) {
	tor, err := fabric.NewTorus(4, 4, 4, fabric.DefaultLinkSpec())
	if err != nil {
		b.Fatal(err)
	}
	c := fabric.NewComm(tor)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Replay(fabric.AllToAll, 1<<16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferenceScenario measures the DL inference-serving experiment
// end-to-end: the transformer-block batch sweep (roofline service times plus
// the batched-FIFO latency replay at 70% load) and the analytic-vs-event
// validation runs.
func BenchmarkInferenceScenario(b *testing.B) { benchExperiment(b, "inference") }

// BenchmarkStoreRoundTrip measures the persistent result store's write+read
// cycle — canonical header, gzip, atomic rename, sha256-verified read — on a
// payload the size of a typical simulate result.
func BenchmarkStoreRoundTrip(b *testing.B) {
	st, err := store.Open(b.TempDir(), 64<<20, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("bench-key-%d", i%256)
		if err := st.Put(key, payload); err != nil {
			b.Fatal(err)
		}
		if _, ok := st.Get(key); !ok {
			b.Fatal("miss immediately after put")
		}
	}
}

// BenchmarkShardedExplore measures a DSE sweep through the cluster
// coordinator against two in-process worker peers: shard dispatch, NDJSON
// streaming, positional merge, and the sequential Finalize tail. Compare
// against BenchmarkDSEExploration for the fan-out overhead.
func BenchmarkShardedExplore(b *testing.B) {
	w1 := httptest.NewServer(cluster.WorkerHandler(nil))
	defer w1.Close()
	w2 := httptest.NewServer(cluster.WorkerHandler(nil))
	defer w2.Close()
	coord := cluster.NewCoordinator([]string{w1.URL, w2.URL}, nil)
	space := Space{
		CUs:      []int{192, 256, 320},
		FreqsMHz: []float64{800, 1000, 1200},
		BWsTBps:  []float64{1, 3},
	}
	names := []string{"CoMD", "HPGMG", "SNAP"}
	kernels := make([]Kernel, len(names))
	for i, n := range names {
		k, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		kernels[i] = k
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Explore(ctx, space, kernels, names, NodePowerBudgetW, 0, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSimulateHot measures the service's cached simulate path
// end-to-end over HTTP: admission-control bypass for cached keys, the
// content-addressed cache hit, and the JSON response encode.
func BenchmarkServiceSimulateHot(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := service.New(ctx, service.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := []byte(`{"kernel":"CoMD"}`)
	post := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("simulate status %d", resp.StatusCode)
		}
		// Drain before closing so the client reuses the connection
		// instead of dialing a new one per iteration.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post() // warm the cache; every timed iteration is a hit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkGEMMSweep measures the tiled-GEMM kernel generator through the
// roofline/core path across a batch sweep — the analytic half of the
// serving scenario, isolated from the event-driven replay.
func BenchmarkGEMMSweep(b *testing.B) {
	cfg := arch.BestMeanEHP()
	base := workload.NewGEMM(4096, 4096, 4096, workload.FP16)
	batches := []int{1, 2, 4, 8, 16, 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range batches {
			sp, err := base.WithBatch(n)
			if err != nil {
				b.Fatal(err)
			}
			k, err := sp.Kernel()
			if err != nil {
				b.Fatal(err)
			}
			if r := core.Simulate(cfg, k, core.Options{}); r.Perf.TFLOPs <= 0 {
				b.Fatalf("GEMM batch %d produced no throughput", n)
			}
		}
	}
}
