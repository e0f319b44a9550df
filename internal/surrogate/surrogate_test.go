package surrogate

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"ena/internal/arch"
	"ena/internal/dse"
	"ena/internal/workload"
)

// smallSpace mirrors the dse determinism suite's 3x3x3 grid.
func smallSpace() dse.Space {
	return dse.Space{
		CUs:      []int{256, 320, 384},
		FreqsMHz: []float64{925, 1000, 1100},
		BWsTBps:  []float64{2, 3, 4},
	}
}

// TestFullBudgetMatchesExplore is the correctness anchor: with the budget
// covering the whole space, the surrogate evaluates every point and its
// Finalized Outcome must equal dse.Explore's bit for bit (reflect.DeepEqual
// compares every float exactly).
func TestFullBudgetMatchesExplore(t *testing.T) {
	space := smallSpace()
	ks := workload.Suite()[:4]
	want := dse.Explore(space, ks, arch.NodePowerBudgetW, 0)

	res, err := Explore(context.Background(), space, ks, arch.NodePowerBudgetW, 0,
		Options{Budget: space.Size(), Seed: 7, BatchSize: 4, InitEvals: 5}, dse.Instr{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != space.Size() {
		t.Fatalf("evaluated %d points, want the whole space (%d)", len(res.Trajectory), space.Size())
	}
	if !reflect.DeepEqual(res.Outcome, want) {
		t.Fatalf("full-budget surrogate outcome differs from Explore\n got %+v\nwant %+v", res.Outcome, want)
	}
}

// TestFullBudgetMatchesExploreExpanded repeats the anchor on a space using
// every packaging axis.
func TestFullBudgetMatchesExploreExpanded(t *testing.T) {
	space := dse.Space{
		CUs:         []int{256, 320},
		FreqsMHz:    []float64{1000},
		BWsTBps:     []float64{2, 3},
		GPUChiplets: []int{4, 8},
		HBMStackGBs: []float64{16, 32},
		ExtModules:  []int{2, 4},
	}
	ks := workload.Suite()[:3]
	want := dse.Explore(space, ks, arch.NodePowerBudgetW, 0)
	res, err := Explore(context.Background(), space, ks, arch.NodePowerBudgetW, 0,
		Options{Budget: space.Size(), Seed: 3, BatchSize: 8, InitEvals: 6}, dse.Instr{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Outcome, want) {
		t.Fatalf("full-budget surrogate outcome differs from Explore on expanded space")
	}
}

// TestSeededDeterminism: identical inputs and seed yield the identical
// Result — trajectory, rounds and every float of the Outcome.
func TestSeededDeterminism(t *testing.T) {
	space := smallSpace()
	ks := workload.Suite()[:4]
	run := func(seed int64) Result {
		res, err := Explore(context.Background(), space, ks, arch.NodePowerBudgetW, 0,
			Options{Budget: 15, Seed: seed, BatchSize: 4, InitEvals: 5}, dse.Instr{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different results\n a traj %v\n b traj %v", a.Trajectory, b.Trajectory)
	}
	c := run(43)
	if reflect.DeepEqual(a.Trajectory, c.Trajectory) {
		t.Logf("note: seeds 42 and 43 chose identical trajectories (legal, just unlikely)")
	}
}

// TestWorkerCountInvariance mirrors the dse determinism suite: the batch
// evaluator's pool width and the forest builder's parallelism must not
// influence any byte of the result.
func TestWorkerCountInvariance(t *testing.T) {
	space := smallSpace()
	ks := workload.Suite()[:4]
	run := func() Result {
		res, err := Explore(context.Background(), space, ks, arch.NodePowerBudgetW, 0,
			Options{Budget: 18, Seed: 9, BatchSize: 5, InitEvals: 6}, dse.Instr{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed the result\n serial traj %v\nparallel traj %v",
			serial.Trajectory, parallel.Trajectory)
	}
}

// TestFindsGoldenWithinQuarterBudget is the sample-efficiency acceptance pin:
// on the paper's default space (490 points) the surrogate must select the
// exact golden best-mean point — 320 CUs / 1000 MHz / 3 TB/s — within a
// quarter of the exhaustive evaluation count.
func TestFindsGoldenWithinQuarterBudget(t *testing.T) {
	space := dse.DefaultSpace()
	budget := space.Size() / 4 // 122 of 490
	res, err := Explore(context.Background(), space, workload.Suite(), arch.NodePowerBudgetW, 0,
		Options{Budget: budget, Seed: 1}, dse.Instr{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) > budget {
		t.Fatalf("evaluated %d points, budget %d", len(res.Trajectory), budget)
	}
	golden := dse.Point{CUs: arch.BestMeanCUs, FreqMHz: arch.BestMeanFreqMHz, BWTBps: arch.BestMeanBWTBps}
	if res.Outcome.BestMean.Point != golden {
		t.Fatalf("best mean = %v after %d evals, want golden %v",
			res.Outcome.BestMean.Point, len(res.Trajectory), golden)
	}
}

// TestEvaluatorSeam: a custom evaluator sees exactly the acquisition batches
// and its results are what Finalize consumes — the cluster fan-out contract.
func TestEvaluatorSeam(t *testing.T) {
	space := smallSpace()
	ks := workload.Suite()[:2]
	var batches [][]dse.Point
	local := LocalEvaluator(ks, arch.NodePowerBudgetW, 0, nil)
	spy := func(ctx context.Context, pts []dse.Point) ([]dse.Eval, error) {
		batches = append(batches, append([]dse.Point(nil), pts...))
		return local(ctx, pts)
	}
	res, err := Explore(context.Background(), space, ks, arch.NodePowerBudgetW, 0,
		Options{Budget: 12, Seed: 5, BatchSize: 4, InitEvals: 4}, dse.Instr{}, spy)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != res.Rounds {
		t.Fatalf("evaluator saw %d batches, result reports %d rounds", len(batches), res.Rounds)
	}
	var total int
	for _, b := range batches {
		total += len(b)
	}
	if total != len(res.Trajectory) || total != 12 {
		t.Fatalf("batches cover %d points, trajectory %d, budget 12", total, len(res.Trajectory))
	}
}

// TestOptionsClamp: budgets beyond the space clamp; invalid spaces error.
func TestOptionsClamp(t *testing.T) {
	space := smallSpace()
	ks := workload.Suite()[:1]
	res, err := Explore(context.Background(), space, ks, arch.NodePowerBudgetW, 0,
		Options{Budget: 10_000, Seed: 0}, dse.Instr{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != space.Size() {
		t.Fatalf("over-budget run evaluated %d points, want %d", len(res.Trajectory), space.Size())
	}

	bad := space
	bad.CUs = nil
	if _, err := Explore(context.Background(), bad, ks, arch.NodePowerBudgetW, 0, Options{}, dse.Instr{}, nil); err == nil {
		t.Fatal("invalid space accepted")
	}
}

// TestCachedEvaluatorBitIdentical: running with a shared PerfCache (warm or
// cold) must not change a single bit of the outcome versus cache-free runs.
func TestCachedEvaluatorBitIdentical(t *testing.T) {
	space := smallSpace()
	ks := workload.Suite()[:4]
	opts := Options{Budget: 15, Seed: 11, BatchSize: 4, InitEvals: 5}
	bare, err := Explore(context.Background(), space, ks, arch.NodePowerBudgetW, 0, opts, dse.Instr{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := dse.NewPerfCache()
	for pass := 0; pass < 2; pass++ {
		cached, err := Explore(context.Background(), space, ks, arch.NodePowerBudgetW, 0, opts, dse.Instr{},
			LocalEvaluator(ks, arch.NodePowerBudgetW, 0, cache))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, cached) {
			t.Fatalf("pass %d: perf-cached run diverged from cache-free run", pass)
		}
	}
}

// TestCancellation: a cancelled context aborts the run with its error.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Explore(ctx, smallSpace(), workload.Suite()[:1], arch.NodePowerBudgetW, 0, Options{}, dse.Instr{}, nil)
	if err == nil {
		t.Fatal("cancelled exploration returned nil error")
	}
}

// TestExploreAllocsBounded pins a surrogate job's allocations on the
// 13,230-point packaging space with the service's options, through a
// synthetic evaluator that allocates two slices per batch, so the count is
// the explorer's own: the embedding, the forest fits and the acquisition
// rounds. Embedding each point in its own slice would alone exceed it.
func TestExploreAllocsBounded(t *testing.T) {
	space := packagingSpace()
	ks := workload.Suite()[:2]
	ev := func(_ context.Context, pts []dse.Point) ([]dse.Eval, error) {
		out := make([]dse.Eval, len(pts))
		perf := make([]float64, len(ks)*len(pts))
		for i, p := range pts {
			pf := perf[i*len(ks) : (i+1)*len(ks)]
			pf[0] = float64(p.CUs) * p.FreqMHz / 1e3
			pf[1] = p.BWTBps * float64(p.GPUChiplets+p.ExtModules)
			out[i] = dse.Eval{Point: p, PerfTFLOPs: pf, BudgetW: pf, FeasibleAll: p.CUs <= arch.ProvisionedCUs}
		}
		return out, nil
	}
	so := Options{Budget: 264, Seed: 1}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Explore(context.Background(), space, ks, arch.NodePowerBudgetW, 0, so, dse.Instr{}, ev); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 2500
	if allocs > bound {
		t.Fatalf("%.0f allocs per surrogate job, want <= %d", allocs, bound)
	}
	t.Logf("%.0f allocs per surrogate job", allocs)
}
