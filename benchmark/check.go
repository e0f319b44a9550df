package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"

	"ena/internal/dse"
	"ena/internal/service"
	"ena/internal/surrogate"
	"ena/internal/workload"
)

// paperAllSHA256 is the sha256 of `enasim -all` stdout. It does not depend on
// GOMAXPROCS; a change to it is a change to the paper's reproduced numbers.
const paperAllSHA256 = "585e6620c914414d5b89bf1d19dd07d2cd8847e2cabf951ed19077b77464692d"

// simVerifier checks /v1/simulate responses field for field against the
// pool's in-process references, and that each body always gets the same key.
// A response byte-identical to one already verified for the same body passes
// without decoding, which keeps the check cheap on the client's share of the
// CPUs.
type simVerifier struct {
	items []simItem
	mu    sync.Mutex
	seen  []verified
}

type verified struct {
	key string
	raw [2][]byte // by the response's cached flag: 0 false, 1 true
}

func newSimVerifier(items []simItem) *simVerifier {
	return &simVerifier{items: items, seen: make([]verified, len(items))}
}

// check verifies the response body for pool item i.
func (v *simVerifier) check(i int, body []byte) error {
	v.mu.Lock()
	s := v.seen[i]
	v.mu.Unlock()
	if bytes.Equal(body, s.raw[0]) || bytes.Equal(body, s.raw[1]) {
		return nil
	}
	var got service.SimulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("simulate response: %w", err)
	}
	want := v.items[i].want
	want.Key, want.Cached = got.Key, got.Cached
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("simulate %s: response %+v differs from the reference %+v", v.items[i].body, got, want)
	}
	if got.Key == "" {
		return fmt.Errorf("simulate %s: empty key", v.items[i].body)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	s = v.seen[i]
	if s.key != "" && s.key != got.Key {
		return fmt.Errorf("simulate %s: key changed from %s to %s", v.items[i].body, s.key, got.Key)
	}
	s.key = got.Key
	slot := 0
	if got.Cached {
		slot = 1
	}
	s.raw[slot] = append([]byte(nil), body...)
	v.seen[i] = s
	return nil
}

// jobResult is the terminal state of one explore job as a client saw it.
type jobResult struct {
	view   service.JobView
	result json.RawMessage // compacted "result" of the terminal job view
}

// checkExploreResult checks a finished job's result against its request: the
// evaluated point count, the space size, the explorer and the budget.
func checkExploreResult(j exploreJob, raw json.RawMessage) (service.ExploreResult, error) {
	var got service.ExploreResult
	if err := json.Unmarshal(raw, &got); err != nil {
		return got, fmt.Errorf("explore result: %w", err)
	}
	size := j.space().Size()
	points, explorer := size, "exhaustive"
	if j.class == classSurrogate {
		points, explorer = surrogateEvalBudget, "surrogate"
	}
	switch {
	case got.Key == "":
		return got, fmt.Errorf("explore %s: empty key", j.body)
	case got.Points != points || got.SpaceSize != size:
		return got, fmt.Errorf("explore %s: %d points of %d, want %d of %d", j.body, got.Points, got.SpaceSize, points, size)
	case got.Explorer != explorer || got.BudgetW != j.req.BudgetW:
		return got, fmt.Errorf("explore %s: explorer %q budget %v", j.body, got.Explorer, got.BudgetW)
	case len(got.PerKernel) != len(workload.Suite()):
		return got, fmt.Errorf("explore %s: %d per-kernel rows", j.body, len(got.PerKernel))
	}
	return got, nil
}

// exploreReference runs the job in process, through dse.Explore or
// surrogate.Explore, and shapes the outcome as the service does. The key is
// the service's own canonical hash and is left empty.
func exploreReference(ctx context.Context, j exploreJob) (service.ExploreResult, error) {
	space, ks := j.space(), workload.Suite()
	var out dse.Outcome
	if j.class == classSurrogate {
		res, err := surrogate.Explore(ctx, space, ks, j.req.BudgetW, 0,
			surrogate.Options{Budget: j.req.EvalBudget, Seed: j.req.Seed}, dse.Instr{}, nil)
		if err != nil {
			return service.ExploreResult{}, err
		}
		out = res.Outcome
	} else {
		out = dse.Explore(space, ks, j.req.BudgetW, 0)
	}
	res := service.ExploreResult{
		Points:    len(out.Evals),
		BudgetW:   j.req.BudgetW,
		Explorer:  "exhaustive",
		SpaceSize: space.Size(),
		BestMean: service.BestPoint{
			CUs:         out.BestMean.Point.CUs,
			FreqMHz:     out.BestMean.Point.FreqMHz,
			BWTBps:      out.BestMean.Point.BWTBps,
			GPUChiplets: out.BestMean.Point.GPUChiplets,
			HBMStackGB:  out.BestMean.Point.HBMStackGB,
			ExtModules:  out.BestMean.Point.ExtModules,
			MeanScore:   out.BestMean.MeanScore,
		},
	}
	if j.class == classSurrogate {
		res.Explorer = "surrogate"
	}
	for _, ev := range out.Evals {
		if ev.FeasibleAll {
			res.Feasible++
		}
	}
	for i, k := range ks {
		b := out.BestPerKernel[i]
		kb := service.KernelBest{Kernel: k.Name, CUs: b.Point.CUs, FreqMHz: b.Point.FreqMHz, BWTBps: b.Point.BWTBps}
		if i < len(b.PerfTFLOPs) {
			kb.TFLOPs, kb.BudgetW = b.PerfTFLOPs[i], b.BudgetW[i]
		}
		res.PerKernel = append(res.PerKernel, kb)
	}
	// Round-trip through JSON so the comparison sees what the wire carries.
	b, err := json.Marshal(res)
	if err != nil {
		return service.ExploreResult{}, err
	}
	var wire service.ExploreResult
	return wire, json.Unmarshal(b, &wire)
}

// referenceSample picks 16 jobs from the first 160 of the measured stream,
// stratified by class, whose results are compared with the in-process
// reference.
func referenceSample(seed int64, jobs []exploreJob, first int) map[int]bool {
	byClass := map[string][]int{}
	for i := first; i < first+160 && i < len(jobs); i++ {
		byClass[jobs[i].class] = append(byClass[jobs[i].class], i)
	}
	rng := newRand(seed, "reference-sample")
	pick := map[int]bool{}
	for _, c := range []struct {
		class string
		n     int
	}{{classBudget, 10}, {classGrid, 4}, {classSurrogate, 2}} {
		idx := byClass[c.class]
		for _, p := range rng.Perm(len(idx))[:min(c.n, len(idx))] {
			pick[idx[p]] = true
		}
	}
	return pick
}

// sameResult compares a served explore result with its reference, ignoring
// only the key.
func sameResult(got, want service.ExploreResult) bool {
	got.Key = ""
	return reflect.DeepEqual(got, want)
}
