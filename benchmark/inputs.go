package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/dse"
	"ena/internal/service"
	"ena/internal/workload"
)

// Every input the servers see is generated here from the run's seed; the
// same seed gives the same bodies, key ranks and job stream.

// newRand returns a generator for one named purpose, so that each input
// stream of a run is independent of the others yet fixed by the seed.
func newRand(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// simKernels are the six Table I proxy applications the simulate pools draw
// from (the MaxFlops microbenchmark and the CoMD-LJ variant are left out).
var simKernels = []string{"CoMD", "HPGMG", "LULESH", "MiniAMR", "XSBench", "SNAP"}

// simItem is one /v1/simulate body and the in-process reference its
// response must match.
type simItem struct {
	body []byte
	want service.SimulateResponse // Key and Cached are not part of the reference
}

// grid spans inclusive [lo, hi] in steps.
func grid(lo, hi, step float64) []float64 {
	var out []float64
	for v := lo; v <= hi+step/2; v += step {
		out = append(out, v)
	}
	return out
}

// simPool draws n distinct (CUs, MHz, TB/s, kernel) combinations from the
// given axes in seeded order; item i is Zipf rank i. The reference for each
// is core.Simulate on the same EHP configuration with default options.
func simPool(rng *rand.Rand, n int, cus, freqs, bws []float64) []simItem {
	type combo struct {
		cus       int
		freq, bw  float64
		kernelIdx int
	}
	var all []combo
	for _, c := range cus {
		for _, f := range freqs {
			for _, b := range bws {
				for k := range simKernels {
					all = append(all, combo{int(c), f, b, k})
				}
			}
		}
	}
	if n > len(all) {
		panic(fmt.Sprintf("simPool: %d items requested from %d combinations", n, len(all)))
	}
	perm := rng.Perm(len(all))
	items := make([]simItem, n)
	for i := range items {
		c := all[perm[i]]
		k, err := workload.ByName(simKernels[c.kernelIdx])
		if err != nil {
			panic(err) // simKernels names suite kernels
		}
		req := service.SimulateRequest{CUs: c.cus, FreqMHz: c.freq, BWTBps: c.bw, Kernel: k.Name}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		res := core.Simulate(arch.EHP(c.cus, c.freq, c.bw), k, core.Options{})
		items[i] = simItem{body: body, want: service.SimulateResponse{
			Config:   service.ConfigView{CUs: c.cus, FreqMHz: c.freq, BWTBps: c.bw},
			Kernel:   k.Name,
			TFLOPs:   res.Perf.TFLOPs,
			Bound:    res.Perf.Bound.String(),
			MissFrac: res.MissFrac,
			NodeW:    res.NodeW,
			PackageW: res.Power.PackageW(),
			GFperW:   res.GFperW,
		}}
	}
	return items
}

// hotPool is simulate-hot's 64-body pool: six kernels over a 4x4x3 grid
// around the paper's best-mean point.
func hotPool(seed int64) []simItem {
	return simPool(newRand(seed, "hot-pool"), 64, grid(256, 352, 32), grid(800, 1100, 100), grid(2, 4, 1))
}

// storePool is simulate-store's 16,384-body pool: six kernels over CUs
// 64-384, 600-1500 MHz and 1-4 TB/s.
func storePool(seed int64) []simItem {
	return simPool(newRand(seed, "store-pool"), 16384, grid(64, 384, 16), grid(600, 1500, 50), grid(1, 4, 0.25))
}

// zipfRanks draws n ranks in [0, size) with P(k) proportional to
// (k+1)^-s.
func zipfRanks(rng *rand.Rand, s float64, size, n int) []int {
	z := rand.NewZipf(rng, s, 1, uint64(size-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// Explore job classes. The stream repeats them in blocks of ten, six budget
// jobs, three grid jobs and one surrogate job, shuffled within each block, so
// every seed carries exactly the same class mix.
const (
	classBudget    = "budget"    // default 490-point space, fresh budget_w: perf phase reused from the PerfCache
	classGrid      = "grid"      // perturbed grid: misses the PerfCache
	classSurrogate = "surrogate" // surrogate explorer on the 13,230-point packaging space
)

// surrogateEvalBudget is the surrogate jobs' eval_budget.
const surrogateEvalBudget = 264

// packagingSpace is the surrogate jobs' 13,230-point space: the default grid
// crossed with three GPU chiplet counts, HBM stack sizes and external-chain
// depths.
func packagingSpace() dse.Space {
	s := dse.DefaultSpace()
	s.GPUChiplets = []int{2, 4, 8}
	s.HBMStackGBs = []float64{8, 16, 32}
	s.ExtModules = []int{2, 3, 4}
	return s
}

// exploreJob is one generated /v1/explore request.
type exploreJob struct {
	class string
	req   service.ExploreRequest
	body  []byte
}

// space resolves the job's design space the way the service does.
func (j exploreJob) space() dse.Space {
	s := dse.DefaultSpace()
	if len(j.req.CUs) > 0 {
		s.CUs = j.req.CUs
	}
	if len(j.req.FreqsMHz) > 0 {
		s.FreqsMHz = j.req.FreqsMHz
	}
	if len(j.req.BWsTBps) > 0 {
		s.BWsTBps = j.req.BWsTBps
	}
	s.GPUChiplets, s.HBMStackGBs, s.ExtModules = j.req.GPUChiplets, j.req.HBMStackGBs, j.req.ExtModules
	return s
}

// exploreStream generates n jobs with no repeated cache key: budgets are
// drawn without replacement from 120.00-200.00 W in 0.01 W steps, perturbed
// grids never repeat, and surrogate seeds are fresh.
func exploreStream(seed int64, n int) []exploreJob {
	rng := newRand(seed, "explore-stream")
	budgets := rng.Perm(8001) // cents above 120.00 W
	if n > len(budgets) {
		panic(fmt.Sprintf("exploreStream: %d jobs exceed the %d distinct budgets", n, len(budgets)))
	}
	seenGrids := map[string]bool{}
	block := []string{
		classBudget, classBudget, classBudget, classBudget, classBudget, classBudget,
		classGrid, classGrid, classGrid, classSurrogate,
	}
	jobs := make([]exploreJob, 0, n)
	for len(jobs) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			if len(jobs) == n {
				break
			}
			req := service.ExploreRequest{BudgetW: 120 + float64(budgets[len(jobs)])/100}
			switch class {
			case classGrid:
				for {
					perturbGrid(rng, &req)
					sig := fmt.Sprint(req.CUs, req.FreqsMHz, req.BWsTBps)
					if !seenGrids[sig] {
						seenGrids[sig] = true
						break
					}
				}
			case classSurrogate:
				req.Explorer = "surrogate"
				req.EvalBudget = surrogateEvalBudget
				req.Seed = int64(len(jobs)) + 1
				ps := packagingSpace()
				req.GPUChiplets, req.HBMStackGBs, req.ExtModules = ps.GPUChiplets, ps.HBMStackGBs, ps.ExtModules
			}
			body, err := json.Marshal(req)
			if err != nil {
				panic(err)
			}
			jobs = append(jobs, exploreJob{class: class, req: req, body: body})
		}
	}
	return jobs
}

// perturbGrid sets req's three classic axes to the default grid with one
// value dropped or added on one or two of them. The candidate values admit
// about 7,700 distinct perturbations, well above the 2,400 grid jobs of the
// longest stream.
func perturbGrid(rng *rand.Rand, req *service.ExploreRequest) {
	def := dse.DefaultSpace()
	cus := intsToFloats(def.CUs)
	freqs := append([]float64(nil), def.FreqsMHz...)
	bws := append([]float64(nil), def.BWsTBps...)
	axes := []*[]float64{&cus, &freqs, &bws}
	candidates := [][]float64{grid(128, 384, 8), grid(600, 1600, 10), grid(0.5, 8, 0.25)}
	for _, a := range rng.Perm(3)[:1+rng.Intn(2)] {
		axis := axes[a]
		if rng.Intn(2) == 0 {
			i := rng.Intn(len(*axis))
			*axis = append((*axis)[:i:i], (*axis)[i+1:]...)
			continue
		}
		var fresh []float64
		for _, v := range candidates[a] {
			if !contains(*axis, v) {
				fresh = append(fresh, v)
			}
		}
		*axis = append(*axis, fresh[rng.Intn(len(fresh))])
		sort.Float64s(*axis)
	}
	req.CUs = make([]int, len(cus))
	for i, c := range cus {
		req.CUs[i] = int(c)
	}
	req.FreqsMHz, req.BWsTBps = freqs, bws
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func contains(xs []float64, v float64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
