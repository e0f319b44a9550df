package surrogate

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refFitForest is the original forest builder, kept as the oracle for the
// presorted split search: every node copies its bootstrap sample, sorts it
// by (value, point index) once per candidate feature and splits it into
// freshly appended left/right slices. fitForest must reproduce its trees
// node for node.
func refFitForest(seeds []int64, X [][]float64, y []float64, o forestOpts) *forest {
	f := &forest{trees: make([]tree, len(seeds))}
	for i, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		n := len(y)
		sample := make([]int, n)
		for j := range sample {
			sample[j] = rng.Intn(n)
		}
		refGrow(&f.trees[i], rng, X, y, sample, 0, o)
	}
	return f
}

func refGrow(t *tree, rng *rand.Rand, X [][]float64, y []float64, sample []int, depth int, o forestOpts) int32 {
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{feat: -1})

	var sum float64
	allEqual := true
	for _, i := range sample {
		sum += y[i]
		if y[i] != y[sample[0]] {
			allEqual = false
		}
	}
	mean := sum / float64(len(sample))
	if allEqual || depth >= o.maxDepth || len(sample) <= o.minLeaf {
		t.nodes[idx].val = mean
		return idx
	}

	mtry := o.mtry
	if mtry > len(o.feats) {
		mtry = len(o.feats)
	}
	featPerm := rng.Perm(len(o.feats))[:mtry]
	bestGain := math.Inf(-1)
	bestFeat := -1
	var bestThr float64
	ord := make([]int, len(sample))
	for _, fp := range featPerm {
		ft := o.feats[fp]
		copy(ord, sample)
		sort.Slice(ord, func(a, b int) bool {
			xa, xb := X[ord[a]][ft], X[ord[b]][ft]
			if xa != xb {
				return xa < xb
			}
			return ord[a] < ord[b]
		})
		var sl float64
		nl := 0
		for k := 0; k < len(ord)-1; k++ {
			sl += y[ord[k]]
			nl++
			if X[ord[k]][ft] == X[ord[k+1]][ft] {
				continue
			}
			sr := sum - sl
			nr := len(ord) - nl
			gain := sl*sl/float64(nl) + sr*sr/float64(nr)
			if gain > bestGain {
				bestGain = gain
				bestFeat = ft
				bestThr = (X[ord[k]][ft] + X[ord[k+1]][ft]) / 2
			}
		}
	}
	if bestFeat < 0 {
		t.nodes[idx].val = mean
		return idx
	}

	var left, right []int
	for _, i := range sample {
		if X[i][bestFeat] <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		t.nodes[idx].val = mean
		return idx
	}
	t.nodes[idx].feat = bestFeat
	t.nodes[idx].thr = bestThr
	l := refGrow(t, rng, X, y, left, depth+1, o)
	r := refGrow(t, rng, X, y, right, depth+1, o)
	t.nodes[idx].left = l
	t.nodes[idx].right = r
	return idx
}

// randomFitInput draws one seeded training set that stresses the split
// search's tie handling: a pool of few distinct rows reused so the set holds
// exact duplicates, per-feature value vocabularies ranging from constant to
// continuous, and targets drawn from a tiny vocabulary (ties, zeros) or
// continuously.
func randomFitInput(rng *rand.Rand) (X [][]float64, y []float64, o forestOpts) {
	const nFeat = 6
	n := 1 + rng.Intn(160)
	vocab := make([]int, nFeat) // 0 = continuous
	for d := range vocab {
		vocab[d] = []int{1, 2, 3, 5, 0}[rng.Intn(5)]
	}
	distinct := 1 + rng.Intn(n)
	pool := make([][]float64, distinct)
	for i := range pool {
		row := make([]float64, nFeat)
		for d := range row {
			if vocab[d] == 0 {
				row[d] = rng.NormFloat64() * 100
			} else {
				row[d] = float64(rng.Intn(vocab[d])) * 0.5
			}
		}
		pool[i] = row
	}
	discreteY := rng.Intn(2) == 0
	for i := 0; i < n; i++ {
		X = append(X, pool[rng.Intn(distinct)])
		if discreteY {
			y = append(y, []float64{0, 0, 0.25, 1}[rng.Intn(4)])
		} else {
			y = append(y, rng.Float64())
		}
	}
	for d := 0; d < nFeat; d++ {
		if rng.Intn(4) > 0 {
			o.feats = append(o.feats, d)
		}
	}
	if len(o.feats) == 0 {
		o.feats = []int{rng.Intn(nFeat)}
	}
	o.minLeaf = 1 + rng.Intn(4)
	o.maxDepth = []int{1, 3, 8, 14, 40}[rng.Intn(5)]
	o.mtry = 1 + rng.Intn(nFeat+1) // may exceed len(feats): clamped
	return X, y, o
}

// TestFitForestMatchesReference is the differential oracle: over seeded
// random training sets covering duplicate rows, constant and few-valued
// features, tied and zero targets and a spread of minLeaf/maxDepth/mtry,
// the presorted builder must produce exactly the reference builder's trees
// — same shape, features, thresholds and leaf values, compared bit for bit.
func TestFitForestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 300; c++ {
		X, y, o := randomFitInput(rng)
		seeds := make([]int64, 1+rng.Intn(6))
		for i := range seeds {
			seeds[i] = rng.Int63()
		}
		want := refFitForest(seeds, X, y, o)
		got := fitForest(seeds, X, y, o)
		for i := range want.trees {
			if !reflect.DeepEqual(got.trees[i], want.trees[i]) {
				t.Fatalf("case %d (n=%d, opts %+v) tree %d: presorted fit differs from reference\n got %d nodes %v\nwant %d nodes %v",
					c, len(y), o, i, len(got.trees[i].nodes), got.trees[i].nodes,
					len(want.trees[i].nodes), want.trees[i].nodes)
			}
		}
	}
}

// TestFitForestAllocsBounded pins fitForest's allocations to a per-forest
// constant plus one per tree (25 at one worker when pinned): growing the training set (and with it the
// node count) must not add allocations.
func TestFitForestAllocsBounded(t *testing.T) {
	const trees = 8
	seeds := make([]int64, trees)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	o := forestOpts{minLeaf: 1, maxDepth: 40, mtry: 3, feats: []int{0, 1, 2, 3, 4, 5}}
	for _, n := range []int{32, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{rng.Float64(), rng.Float64(), float64(rng.Intn(7)), rng.Float64(), 1, float64(rng.Intn(3))}
			y[i] = rng.Float64()
		}
		nodes := 0
		for _, tr := range fitForest(seeds, X, y, o).trees {
			nodes += len(tr.nodes)
		}
		allocs := testing.AllocsPerRun(5, func() { fitForest(seeds, X, y, o) })
		const bound = 20 + trees
		if allocs > bound {
			t.Errorf("n=%d (%d nodes): %.0f allocs per fit, want <= %d", n, nodes, allocs, bound)
		}
	}
}

// TestForestParallelismInvariant: the presorted builder's per-worker scratch
// must not leak state between the trees a worker builds.
func TestForestParallelismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seeds := []int64{1, 2, 3, 4, 5, 6, 7}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for c := 0; c < 20; c++ {
		X, y, o := randomFitInput(rng)
		runtime.GOMAXPROCS(1)
		serial := fitForest(seeds, X, y, o)
		runtime.GOMAXPROCS(4)
		parallel := fitForest(seeds, X, y, o)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("case %d: forest depends on worker count (n=%d, opts %+v)", c, len(y), o)
		}
	}
}
