package surrogate

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
)

// forest is a seeded random-forest regressor over design-point features. It
// is deterministic by construction: every tree owns a rand.Rand derived from
// a pre-assigned seed and is stored by its index, bootstrap draws and feature
// subsets come only from that per-tree generator, and split search iterates
// samples in a fully ordered way (value, then point index) — so fitting is
// bit-identical no matter how many goroutines build trees.
type forest struct {
	trees []tree
}

type forestOpts struct {
	minLeaf  int
	maxDepth int
	mtry     int   // features considered per split
	feats    []int // indices of features with >1 distinct value
}

// node is one tree node; feat < 0 marks a leaf carrying val.
type node struct {
	feat        int
	thr         float64
	left, right int32
	val         float64
}

type tree struct {
	nodes []node
}

// fitForest trains one tree per seed over the sample matrix X (row-major,
// one row per evaluated point) and targets y, building trees concurrently.
//
// Split search never sorts inside a node. Once per fit, every active
// feature's rows are ordered by (value, row index); each tree expands that
// order by its bootstrap multiplicities and grow stably partitions the lists
// down the tree, so every node sees each feature's samples in exactly the
// order a per-node sort by (value, point index) would produce.
func fitForest(seeds []int64, X [][]float64, y []float64, o forestOpts) *forest {
	n := len(y)
	nf := len(o.feats)
	cols := make([]float64, nf*n)
	order := make([]int32, nf*n)
	for fp, ft := range o.feats {
		col, ord := cols[fp*n:(fp+1)*n], order[fp*n:(fp+1)*n]
		for r := range col {
			col[r] = X[r][ft]
			ord[r] = int32(r)
		}
		slices.SortFunc(ord, func(a, b int32) int {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
			return int(a - b)
		})
	}

	f := &forest{trees: make([]tree, len(seeds))}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(seeds) {
		workers = len(seeds)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newBuilder(cols, order, y, o)
			for i := range work {
				f.trees[i] = b.build(seeds[i])
			}
		}()
	}
	for i := range seeds {
		work <- i
	}
	close(work)
	wg.Wait()
	return f
}

// builder holds one worker's tree-building state, reused across the trees
// it builds. For the node being grown over [lo, hi), lists[fp*n+lo:fp*n+hi]
// holds the node's bootstrap sample ordered by (feature o.feats[fp], row)
// and sample[lo:hi] holds the same multiset in bootstrap-draw order, which
// fixes the order leaf means are summed in.
type builder struct {
	rng    *rand.Rand
	cols   []float64 // column-major X over the active features
	order  []int32   // per active feature, rows ordered by (value, row)
	y      []float64
	o      forestOpts
	n      int
	lists  []int32
	sample []int32
	mult   []int32 // bootstrap multiplicity per row
	spill  []int32 // partition scratch
	left   []bool  // per row: goes left at the current split
	perm   []int   // feature permutation scratch
	nodes  []node
}

func newBuilder(cols []float64, order []int32, y []float64, o forestOpts) *builder {
	n := len(y)
	return &builder{
		rng:    rand.New(rand.NewSource(0)),
		cols:   cols,
		order:  order,
		y:      y,
		o:      o,
		n:      n,
		lists:  make([]int32, len(order)),
		sample: make([]int32, n),
		mult:   make([]int32, n),
		spill:  make([]int32, n),
		left:   make([]bool, n),
		perm:   make([]int, len(o.feats)),
		// A tree's leaves are non-empty, so it has at most 2n-1 nodes.
		nodes: make([]node, 0, 2*n),
	}
}

// build grows the tree for seed: n bootstrap draws, then grow from the root,
// drawing exactly the random numbers the per-node-sort builder drew.
func (b *builder) build(seed int64) tree {
	b.rng.Seed(seed)
	clear(b.mult)
	for i := range b.sample {
		r := int32(b.rng.Intn(b.n))
		b.sample[i] = r
		b.mult[r]++
	}
	for fp := range b.o.feats {
		list := b.lists[fp*b.n : fp*b.n]
		for _, r := range b.order[fp*b.n : (fp+1)*b.n] {
			for k := int32(0); k < b.mult[r]; k++ {
				list = append(list, r)
			}
		}
	}
	b.nodes = b.nodes[:0]
	b.grow(0, b.n, 0)
	return tree{nodes: slices.Clone(b.nodes)}
}

// grow appends the subtree fit to the samples in [lo, hi) and returns its
// root's node index.
func (b *builder) grow(lo, hi, depth int) int32 {
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feat: -1})
	y := b.y
	sample := b.sample[lo:hi]

	var sum float64
	allEqual := true
	for _, i := range sample {
		sum += y[i]
		if y[i] != y[sample[0]] {
			allEqual = false
		}
	}
	mean := sum / float64(len(sample))
	if allEqual || depth >= b.o.maxDepth || len(sample) <= b.o.minLeaf {
		b.nodes[idx].val = mean
		return idx
	}

	// Split search over a random subset of the informative features: scan
	// each one's (value, row)-ordered list and evaluate thresholds between
	// distinct values, maximizing the variance-reduction surrogate
	// sumL²/nL + sumR²/nR via prefix sums. Strict > keeps the first best in
	// the (deterministic) iteration order, fixing all tie-breaks.
	mtry := b.o.mtry
	if mtry > len(b.o.feats) {
		mtry = len(b.o.feats)
	}
	bestGain := math.Inf(-1)
	bestFp := -1
	var bestThr float64
	for _, fp := range permInto(b.rng, b.perm)[:mtry] {
		col := b.cols[fp*b.n : (fp+1)*b.n]
		list := b.lists[fp*b.n+lo : fp*b.n+hi]
		var sl float64
		nl := 0
		for k := 0; k < len(list)-1; k++ {
			sl += y[list[k]]
			nl++
			if col[list[k]] == col[list[k+1]] {
				continue
			}
			sr := sum - sl
			nr := len(list) - nl
			gain := sl*sl/float64(nl) + sr*sr/float64(nr)
			if gain > bestGain {
				bestGain = gain
				bestFp = fp
				bestThr = (col[list[k]] + col[list[k+1]]) / 2
			}
		}
	}
	if bestFp < 0 {
		b.nodes[idx].val = mean
		return idx
	}

	col := b.cols[bestFp*b.n : (bestFp+1)*b.n]
	nl := 0
	for _, i := range sample {
		b.left[i] = col[i] <= bestThr
		nl += b2i(b.left[i])
	}
	if nl == 0 || nl == len(sample) {
		b.nodes[idx].val = mean
		return idx
	}
	b.partition(sample)
	// Leaves never read the feature lists: skip partitioning them when
	// depth or size already makes both children leaves.
	if depth+1 < b.o.maxDepth && max(nl, len(sample)-nl) > b.o.minLeaf {
		for fp := range b.o.feats {
			b.partition(b.lists[fp*b.n+lo : fp*b.n+hi])
		}
	}
	b.nodes[idx].feat = b.o.feats[bestFp]
	b.nodes[idx].thr = bestThr
	l := b.grow(lo, lo+nl, depth+1)
	r := b.grow(lo+nl, hi, depth+1)
	b.nodes[idx].left = l
	b.nodes[idx].right = r
	return idx
}

// permInto draws a permutation of [0, len(m)) into m with exactly the
// generator calls rand.Perm(len(m)) makes, so it returns Perm's values and
// leaves rng in the same state, without allocating.
func permInto(rng *rand.Rand, m []int) []int {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// partition stably moves seg's left-going rows ahead of its right-going ones.
func (b *builder) partition(seg []int32) {
	// Branch-free: which side a row goes to is data-dependent, so write it
	// to both destinations and advance only the matching cursor.
	left, spill := b.left, b.spill[:len(seg)]
	l, r := 0, 0
	for _, i := range seg {
		m := b2i(left[i])
		seg[l] = i
		spill[r] = i
		l += m
		r += 1 - m
	}
	copy(seg[l:], spill[:r])
}

// nFeatures is the width of a design point's embedding (see features).
const nFeatures = 6

// predictor scores candidate pools against a forest. Rather than walking
// each candidate down each tree — a chain of dependent loads per walk — it
// pushes the pool's index list down every tree, stably partitioning it at
// each split exactly as builder.partition moves training rows, and writes a
// leaf's value to every candidate its segment holds. Trees are spread over
// workers; each prediction depends only on its tree and candidate, so the
// output cannot depend on the worker count. Buffers are reused across
// rounds.
type predictor struct {
	cols    []float64 // the pool's features, column-major: cols[d*nc+j]
	out     []float64 // per-tree predictions, tree-major: out[t*nc+j]
	workers []*predictWorker
}

// predictWorker is one worker's scratch for pushing a pool down its trees.
type predictWorker struct {
	list, spill []int32
	cols        []float64
	nc          int
	nodes       []node
	row         []float64
}

// predict scores the points feats[cands[j]] under every tree of f. Tree t's
// prediction for candidate j is at out[t*len(cands)+j]; the slice is only
// valid until the next call.
func (p *predictor) predict(f *forest, feats [][]float64, cands []int) []float64 {
	nc, nt := len(cands), len(f.trees)
	p.cols = slices.Grow(p.cols[:0], nFeatures*nc)[:nFeatures*nc]
	p.out = slices.Grow(p.out[:0], nt*nc)[:nt*nc]
	for j, i := range cands {
		for d, v := range feats[i] {
			p.cols[d*nc+j] = v
		}
	}
	nw := min(runtime.GOMAXPROCS(0), nt)
	for len(p.workers) < nw {
		p.workers = append(p.workers, &predictWorker{})
	}
	var wg sync.WaitGroup
	for w, pw := range p.workers[:nw] {
		pw.list = slices.Grow(pw.list[:0], nc)[:nc]
		pw.spill = slices.Grow(pw.spill[:0], nc)[:nc]
		pw.cols, pw.nc = p.cols, nc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := w; t < nt; t += nw {
				pw.predict(f.trees[t].nodes, p.out[t*nc:(t+1)*nc])
			}
		}()
	}
	wg.Wait()
	return p.out
}

// predict writes the tree's prediction for every pool candidate to row.
func (w *predictWorker) predict(nodes []node, row []float64) {
	for j := range w.list {
		w.list[j] = int32(j)
	}
	w.nodes, w.row = nodes, row
	w.descend(0, w.list)
}

// descend routes the candidates in seg from node i to their leaves.
func (w *predictWorker) descend(i int32, seg []int32) {
	if len(seg) == 0 {
		return
	}
	nd := &w.nodes[i]
	if nd.feat < 0 {
		for _, j := range seg {
			w.row[j] = nd.val
		}
		return
	}
	// Branch-free stable partition on x[feat] <= thr, as in
	// builder.partition.
	col, thr, spill := w.cols[nd.feat*w.nc:(nd.feat+1)*w.nc], nd.thr, w.spill
	l, r := 0, 0
	for _, j := range seg {
		m := b2i(col[j] <= thr)
		seg[l] = j
		spill[r] = j
		l += m
		r += 1 - m
	}
	copy(seg[l:], spill[:r])
	w.descend(nd.left, seg[:l])
	w.descend(nd.right, seg[l:])
}

// meanStd returns the mean and (population) standard deviation of one
// candidate's per-tree predictions, summed in tree order.
func meanStd(preds []float64) (mu, sigma float64) {
	var sum float64
	for _, v := range preds {
		sum += v
	}
	mu = sum / float64(len(preds))
	var ss float64
	for _, v := range preds {
		d := v - mu
		ss += d * d
	}
	sigma = math.Sqrt(ss / float64(len(preds)))
	return mu, sigma
}
