// Package surrogate implements surrogate-guided design-space exploration: a
// deterministic, seeded random-forest regressor fit to the design points
// evaluated so far, with expected-improvement batch acquisition choosing what
// to evaluate next. It sits behind the same evaluation seam the exhaustive
// sweeps use — every point goes through dse.EvaluatePointContext semantics
// (optionally perf-row cached, optionally fanned out across cluster shards),
// and the final Outcome comes from dse.Finalize over the evaluated points in
// canonical order. With the budget set to the whole space the result is
// therefore bit-identical to dse.Explore; with a fraction of it, the
// explorer finds the best-mean optimum in a fraction of the evaluations.
//
// Determinism contract: a run is a pure function of (space, kernels, budget,
// optimizations, Options). All randomness flows from Options.Seed through
// explicitly owned generators; batch results are stored by point index;
// acquisition ties break by canonical point index; and neither the worker
// count of the batch evaluator nor the number of goroutines building trees
// influences any float in the result.
package surrogate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"ena/internal/arch"
	"ena/internal/dse"
	"ena/internal/obs"
	"ena/internal/powopt"
	"ena/internal/stats"
	"ena/internal/workload"
)

// Options tune the explorer. The zero value selects sensible defaults for
// every field (see withDefaults); only Seed has no default worth naming —
// zero is as good a seed as any.
type Options struct {
	// Budget is the maximum number of points to evaluate (clamped to the
	// space size; 0 means a quarter of the space).
	Budget int
	// Seed drives all randomness: the initial sample, bootstrap draws,
	// feature subsets and candidate subsampling.
	Seed int64
	// InitEvals is the size of the seeded initial random sample
	// (0 = 3 batches' worth).
	InitEvals int
	// BatchSize is the number of points acquired per round (0 = 16).
	BatchSize int
	// Trees is the forest size (0 = 24).
	Trees int
	// MinLeaf is the minimum samples per leaf (0 = 2).
	MinLeaf int
	// MaxDepth caps tree depth (0 = 14).
	MaxDepth int
	// CandidatePool caps how many unevaluated points are scored per round
	// (0 = 2048); larger pools score more of the space per round at
	// proportional prediction cost.
	CandidatePool int
}

func (o Options) withDefaults(spaceSize int) Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 16
	}
	if o.InitEvals <= 0 {
		o.InitEvals = 3 * o.BatchSize
	}
	if o.Budget <= 0 {
		o.Budget = spaceSize / 4
	}
	if o.Budget < o.InitEvals {
		o.Budget = o.InitEvals
	}
	if o.Budget > spaceSize {
		o.Budget = spaceSize
	}
	if o.InitEvals > o.Budget {
		o.InitEvals = o.Budget
	}
	if o.Trees <= 0 {
		o.Trees = 24
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 2
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 14
	}
	if o.CandidatePool <= 0 {
		o.CandidatePool = 2048
	}
	return o
}

// Evaluator evaluates one acquisition batch; out[i] must be pts[i]'s Eval,
// computed exactly as dse.EvaluatePointContext computes it (MeanScore left
// zero — it is assigned by Finalize). The local evaluator runs a worker pool
// in-process; the cluster evaluator fans the batch out across shard workers.
type Evaluator func(ctx context.Context, pts []dse.Point) ([]dse.Eval, error)

// Result is a completed surrogate exploration.
type Result struct {
	// Outcome is dse.Finalize over the evaluated points in canonical
	// order — the same shape an exhaustive Explore returns, restricted to
	// the evaluated subset.
	Outcome dse.Outcome
	// Trajectory lists the evaluated points as indices into
	// space.Points(), in evaluation order (acquisition priority within a
	// round). Sample-efficiency curves are derived from it.
	Trajectory []int
	// Rounds counts evaluation rounds (initial sample included).
	Rounds int
	// SpaceSize, Budget and Seed echo the resolved run parameters.
	SpaceSize int
	Budget    int
	Seed      int64
}

// LocalEvaluator returns an in-process batch evaluator bound to the kernels,
// budget and optimizations, evaluating batch points on a bounded worker pool.
// cache (optional) reuses perf rows across rounds and runs.
func LocalEvaluator(kernels []workload.Kernel, budgetW float64, opts powopt.Technique, cache *dse.PerfCache) Evaluator {
	evalOne := dse.NewPointEvaluator(kernels, budgetW, opts, cache)
	return func(ctx context.Context, pts []dse.Point) ([]dse.Eval, error) {
		out := make([]dse.Eval, len(pts))
		workers := runtime.GOMAXPROCS(0)
		if workers > len(pts) {
			workers = len(pts)
		}
		work := make(chan int)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					if ctx.Err() != nil {
						continue
					}
					ev, err := evalOne(ctx, pts[i])
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						continue
					}
					out[i] = ev
				}
			}()
		}
		for i := range pts {
			work <- i
		}
		close(work)
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return out, nil
	}
}

// Explore runs the surrogate-guided exploration: a seeded initial sample,
// then rounds of fit-forest → score expected improvement → evaluate the top
// batch, until the budget (or the space) is exhausted. ev nil means the
// local evaluator without perf caching. The space must Validate.
func Explore(ctx context.Context, space dse.Space, kernels []workload.Kernel, budgetW float64, opts powopt.Technique, so Options, ins dse.Instr, ev Evaluator) (Result, error) {
	if err := space.Validate(); err != nil {
		return Result{}, err
	}
	reg := ins.Reg
	if reg == nil && ins.Tracer == nil {
		reg = obs.Default().Reg
	}
	if ev == nil {
		ev = LocalEvaluator(kernels, budgetW, opts, nil)
	}
	pts := space.Points()
	n := len(pts)
	so = so.withDefaults(n)
	rng := rand.New(rand.NewSource(so.Seed))

	feats, active := features(pts)
	mtry := (len(active) + 1) / 2
	if mtry < 2 {
		mtry = len(active)
	}

	evals := make([]dse.Eval, n)
	evaluated := make([]bool, n)
	traj := make([]int, 0, so.Budget)
	evalBatch := func(batch []int) error {
		bp := make([]dse.Point, len(batch))
		for j, i := range batch {
			bp[j] = pts[i]
		}
		res, err := ev(ctx, bp)
		if err != nil {
			return err
		}
		if len(res) != len(batch) {
			return fmt.Errorf("surrogate: evaluator returned %d evals for %d points", len(res), len(batch))
		}
		for j, i := range batch {
			evals[i] = res[j]
			evaluated[i] = true
			traj = append(traj, i)
		}
		reg.Counter("dse.surrogate_evals").Add(int64(len(batch)))
		return nil
	}

	// perm and picked are the candidate-subsampling scratch; cands and
	// scores hold one round's pool.
	perm := make([]int, n)
	picked := make([]bool, n)
	cands := make([]int, 0, n)
	pool := min(so.CandidatePool, n)
	scores := make([]scored, 0, so.BatchSize)
	row := make([]float64, so.Trees)
	var pr predictor

	// Round 0: the seeded initial sample.
	if err := evalBatch(permInto(rng, perm)[:so.InitEvals]); err != nil {
		return Result{}, err
	}
	rounds := 1

	for len(traj) < so.Budget && len(traj) < n {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		X, y, best := trainingSet(evals, evaluated, feats, len(kernels))
		seeds := make([]int64, so.Trees)
		for i := range seeds {
			seeds[i] = rng.Int63()
		}
		f := fitForest(seeds, X, y, forestOpts{
			minLeaf:  so.MinLeaf,
			maxDepth: so.MaxDepth,
			mtry:     mtry,
			feats:    active,
		})

		cands = cands[:0]
		for i := 0; i < n; i++ {
			if !evaluated[i] {
				cands = append(cands, i)
			}
		}
		if len(cands) > pool {
			// Keep the pool's picks in canonical order: mark the positions
			// the permutation's prefix draws, then scan the pool in order.
			for _, k := range permInto(rng, perm[:len(cands)])[:pool] {
				picked[k] = true
			}
			sub := cands[:0]
			for k, i := range cands {
				if picked[k] {
					picked[k] = false
					sub = append(sub, i)
				}
			}
			cands = sub
		}

		b := so.BatchSize
		if rem := so.Budget - len(traj); b > rem {
			b = rem
		}
		preds := pr.predict(f, feats, cands)
		nc := len(cands)
		scores = scores[:0]
		for j, i := range cands {
			for t := range row {
				row[t] = preds[t*nc+j]
			}
			mu, sigma := meanStd(row)
			scores = topInsert(scores, b, scored{idx: i, ei: expectedImprovement(mu, sigma, best)})
		}
		batch := make([]int, len(scores))
		for j, sc := range scores {
			batch[j] = sc.idx
		}
		if err := evalBatch(batch); err != nil {
			return Result{}, err
		}
		rounds++
	}
	reg.Counter("dse.surrogate_rounds").Add(int64(rounds))

	final := make([]dse.Eval, 0, len(traj))
	for i := 0; i < n; i++ {
		if evaluated[i] {
			final = append(final, evals[i])
		}
	}
	return Result{
		Outcome:    dse.Finalize(final, kernels, budgetW, opts),
		Trajectory: traj,
		Rounds:     rounds,
		SpaceSize:  n,
		Budget:     so.Budget,
		Seed:       so.Seed,
	}, nil
}

// scored is a candidate's acquisition score.
type scored struct {
	idx int
	ei  float64
}

// before orders candidates by EI descending, then point index ascending.
func (a scored) before(b scored) bool {
	if a.ei != b.ei {
		return a.ei > b.ei
	}
	return a.idx < b.idx
}

// topInsert keeps top as the best (at most) b candidates seen so far, in
// order: the same batch, in the same order, that sorting every candidate and
// taking the first b gives.
func topInsert(top []scored, b int, s scored) []scored {
	if len(top) == b {
		if b == 0 || !s.before(top[b-1]) {
			return top
		}
		top = top[:b-1]
	}
	k := len(top)
	top = append(top, s)
	for ; k > 0 && s.before(top[k-1]); k-- {
		top[k] = top[k-1]
	}
	top[k] = s
	return top
}

// features embeds every point as a 6-vector (CUs, freq, bandwidth, chiplet
// count, stack capacity, chain depth), materializing packaging defaults so
// mixed spaces embed consistently. active lists the feature indices that
// actually vary across the space — the only ones worth splitting on. The
// rows are sub-slices of one flat buffer: embedding a space allocates two
// slices, not one per point.
func features(pts []dse.Point) (feats [][]float64, active []int) {
	feats = make([][]float64, len(pts))
	flat := make([]float64, nFeatures*len(pts))
	for i, p := range pts {
		g, h, m := p.GPUChiplets, p.HBMStackGB, p.ExtModules
		if g == 0 {
			g = arch.GPUChipletCount
		}
		if h == 0 {
			h = arch.HBMStackCapacityGB
		}
		if m == 0 {
			m = arch.DefaultModulesPerChain
		}
		x := flat[i*nFeatures : (i+1)*nFeatures : (i+1)*nFeatures]
		x[0], x[1], x[2], x[3], x[4], x[5] = float64(p.CUs), p.FreqMHz, p.BWTBps, float64(g), h, float64(m)
		feats[i] = x
	}
	for d := 0; d < nFeatures; d++ {
		for i := 1; i < len(pts); i++ {
			if feats[i][d] != feats[0][d] {
				active = append(active, d)
				break
			}
		}
	}
	if len(active) == 0 {
		active = []int{0}
	}
	return feats, active
}

// trainingSet builds the regression inputs over the evaluated points in
// canonical index order. The target mirrors the best-mean selection rule of
// dse.Finalize restricted to the evaluated set: infeasible points and points
// beyond the provisioned CU count score zero; the rest score the mean of
// per-kernel performance normalized by the best observed so far. best is the
// incumbent (maximum target).
func trainingSet(evals []dse.Eval, evaluated []bool, feats [][]float64, nKernels int) (X [][]float64, y []float64, best float64) {
	maxPerf := make([]float64, nKernels)
	for i, done := range evaluated {
		if !done {
			continue
		}
		for ki, p := range evals[i].PerfTFLOPs {
			if p > maxPerf[ki] {
				maxPerf[ki] = p
			}
		}
	}
	norm := make([]float64, nKernels)
	for i, done := range evaluated {
		if !done {
			continue
		}
		var obj float64
		if evals[i].FeasibleAll && evals[i].Point.CUs <= arch.ProvisionedCUs {
			for ki, p := range evals[i].PerfTFLOPs {
				if maxPerf[ki] > 0 {
					norm[ki] = p / maxPerf[ki]
				} else {
					norm[ki] = 0
				}
			}
			obj = stats.Mean(norm)
		}
		X = append(X, feats[i])
		y = append(y, obj)
		if obj > best {
			best = obj
		}
	}
	return X, y, best
}

// expectedImprovement is the standard EI acquisition for maximization, with
// a small exploration margin; a zero-variance prediction degenerates to the
// plain improvement.
func expectedImprovement(mu, sigma, best float64) float64 {
	const xi = 1e-3
	z := mu - best - xi
	if sigma < 1e-12 {
		if z > 0 {
			return z
		}
		return 0
	}
	u := z / sigma
	return z*normCDF(u) + sigma*normPDF(u)
}

func normCDF(u float64) float64 { return 0.5 * math.Erfc(-u/math.Sqrt2) }

func normPDF(u float64) float64 { return math.Exp(-u*u/2) / math.Sqrt(2*math.Pi) }
