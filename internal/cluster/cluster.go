// Package cluster shards sweep-shaped service jobs across enaserve worker
// processes. A coordinator deterministically partitions a job's item list
// — design points for /v1/explore, node counts for /v1/scale — into
// contiguous shards, fans them out to worker peers over HTTP, streams
// per-item results back as they complete, retries failed shards on the
// surviving workers (falling back to local evaluation when none survive),
// and merges to the bit-identical single-process answer.
//
// Bit-identity holds by construction: every item is a pure function of the
// request (dse.EvaluatePointContext for explore points, EvalScale for scale
// sizes), shards cover the item list exactly once, results are merged
// positionally, and the sequential scoring/selection tail (dse.Finalize)
// runs on the merged slice exactly as a local sweep would have run it.
//
// Wire protocol: POST /v1/internal/shard/{explore,scale} with a
// shardRequest — the sweep's fixed parameters plus exactly the shard's
// items; the path selects the sweep kind. The response is an NDJSON stream
// of one line per completed item (carrying its index, so completion order
// is free to vary) terminated by a "done" line with the item count. A
// stream that ends without "done", or stays silent past the coordinator's
// idle deadline (workers send keepalive spaces), is a failed shard.
package cluster

import (
	"errors"
	"fmt"
	"strings"

	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/workload"
)

// protoVersion guards the shard wire format; a worker rejects mismatched
// requests so mixed-version fleets fail loudly instead of merging garbage.
// v3 replaced the grid-range, point-list and size-range requests with the
// one point-list shardRequest; it also keys checkpoints, so a v2
// checkpoint is never resumed.
const protoVersion = 3

// shardRequest is the one shard shape every sweep kind uses: Job holds the
// kind's fixed parameters (exploreJob or scaleJob), Items exactly the
// shard's items (design points or node counts), and item i streams back as
// index Start+i.
type shardRequest[J, I any] struct {
	V     int `json:"v"`
	Job   J   `json:"job"`
	Start int `json:"start"`
	Items []I `json:"items"`
}

// shardLine is one line of a shard response stream: an evaluated item
// ("item", with its index), the "done" trailer with the item count, or a
// best-effort "error" line.
type shardLine[R any] struct {
	Type  string `json:"type"`
	Index int    `json:"index,omitempty"`
	Item  *R     `json:"item,omitempty"`
	Count int    `json:"count,omitempty"`
	Error string `json:"error,omitempty"`
}

// exploreJob is an explore sweep's fixed parameters; its items are
// dse.Points.
type exploreJob struct {
	Kernels []string `json:"kernels"`
	BudgetW float64  `json:"budget_w"`
	Opts    uint     `json:"opts"`
}

// scaleJob is a scale sweep's fixed parameters; its items are node counts.
type scaleJob struct {
	Kernel    string  `json:"kernel"`
	Topology  string  `json:"topology"`
	Mode      string  `json:"mode"`
	LinkGBps  float64 `json:"link_gbps"`
	LatencyNs float64 `json:"latency_ns"`
	Ideal     bool    `json:"ideal"`
	Mask      string  `json:"mask"`
	Seed      int64   `json:"seed"`
}

// ScaleEval is one node count's evaluation: the healthy fabric point plus —
// when the request carried a fault mask — the degraded re-evaluation with
// collectives rerouted around the victims.
type ScaleEval struct {
	Point              fabric.Point `json:"point"`
	FailedNodes        int          `json:"failed_nodes,omitempty"`
	DegradedEfficiency float64      `json:"degraded_efficiency,omitempty"`
	Partitioned        bool         `json:"partitioned,omitempty"`
}

// shard is a contiguous index range [start, end).
type shard struct{ start, end int }

// partition splits n items into at most k contiguous, near-equal shards
// covering [0, n) exactly once. Deterministic: same (n, k) always yields the
// same partition, so coordinator and tests agree on shard boundaries.
func partition(n, k int) []shard {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]shard, 0, k)
	for i := 0; i < k; i++ {
		s := i * n / k
		e := (i + 1) * n / k
		if s < e {
			out = append(out, shard{start: s, end: e})
		}
	}
	return out
}

// chunked splits n items into fixed-size contiguous shards of size chunk
// covering [0, n) exactly once. Unlike partition, the boundaries depend only
// on (n, chunk) — not on the peer count — so checkpoints written against
// these shards by one replica land on the same boundaries in any other
// replica, whatever its peer set looks like.
func chunked(n, chunk int) []shard {
	if n <= 0 {
		return nil
	}
	if chunk < 1 {
		chunk = 1
	}
	out := make([]shard, 0, (n+chunk-1)/chunk)
	for s := 0; s < n; s += chunk {
		e := s + chunk
		if e > n {
			e = n
		}
		out = append(out, shard{start: s, end: e})
	}
	return out
}

// Scale job limits. /v1/scale's request resolution and the scale shard
// decoder both apply them, so a body no replica would accept as a job is
// refused on the shard wire too.
const (
	// MaxScaleSizes bounds how many node counts one job may sweep.
	MaxScaleSizes = 16
	// MaxScaleNodes bounds each count (the §V-F machine is 100k nodes).
	MaxScaleNodes = 1 << 20
	// MaxDegradedNodes bounds fault-mask analysis: degraded routing falls
	// back to per-pair BFS around the victims, which is priced for rack
	// scale, not the full machine.
	MaxDegradedNodes = 4096
)

// ParseMode resolves a scaling mode name; empty means weak.
func ParseMode(s string) (fabric.Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "weak":
		return fabric.Weak, nil
	case "strong":
		return fabric.Strong, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want strong or weak)", s)
}

// ParseTopology resolves a fabric topology name; empty means torus.
func ParseTopology(s string) (string, error) {
	kind := strings.ToLower(strings.TrimSpace(s))
	if kind == "" {
		return "torus", nil
	}
	for _, known := range fabric.Kinds() {
		if kind == known {
			return kind, nil
		}
	}
	return "", fmt.Errorf("unknown topology %q (want %s)", s, strings.Join(fabric.Kinds(), ", "))
}

// ParseScaleMask parses a scale job's fault mask, which may only kill whole
// nodes.
func ParseScaleMask(s string) (faults.Mask, error) {
	mask, err := faults.ParseMask(s)
	if err != nil {
		return faults.Mask{}, err
	}
	node, local := mask.SplitNode()
	if !local.Empty() {
		return faults.Mask{}, fmt.Errorf("fault mask %q has non-node terms %q: the fabric only kills whole nodes (use /v1/simulate for intra-node faults)", s, local.String())
	}
	return node, nil
}

// CheckScaleSizes applies the scale limits to a job's node counts;
// degraded marks a job that carries a fault mask.
func CheckScaleSizes(sizes []int, degraded bool) error {
	if len(sizes) > MaxScaleSizes {
		return fmt.Errorf("%d node counts exceed the per-request limit of %d", len(sizes), MaxScaleSizes)
	}
	for _, p := range sizes {
		switch {
		case p < 1:
			return fmt.Errorf("non-positive node count %d", p)
		case p > MaxScaleNodes:
			return fmt.Errorf("node count %d exceeds the limit of %d", p, MaxScaleNodes)
		case degraded && p > MaxDegradedNodes:
			return fmt.Errorf("fault-mask analysis is limited to %d nodes per topology (requested %d)", MaxDegradedNodes, p)
		}
	}
	return nil
}

// EvalScale evaluates one node count of a scale job: the healthy analytic
// point, plus the degraded re-evaluation when mask kills nodes. It is a pure
// function of its arguments — the property sharding relies on — and matches
// the per-size work of fabric.Curves plus the service layer's degraded pass.
func EvalScale(kind string, spec fabric.LinkSpec, k workload.Kernel, rate float64, size int, mode fabric.Mode, mask faults.Mask, seed int64) (ScaleEval, error) {
	t, err := fabric.New(kind, size, spec)
	if err != nil {
		return ScaleEval{}, err
	}
	pt, err := fabric.Evaluate(fabric.NewComm(t), k, rate, mode)
	if err != nil {
		return ScaleEval{}, err
	}
	se := ScaleEval{Point: pt}
	if mask.Empty() {
		return se, nil
	}
	failed, err := fabric.FailedNodes(t.Nodes(), mask, seed)
	if err != nil {
		// Too many victims for this size (e.g. node:3 on a 2-node torus, or
		// a targeted index past the end): a dead machine, not a shard error.
		se.FailedNodes = size
		se.Partitioned = true
		return se, nil
	}
	se.FailedNodes = len(failed)
	comm, err := fabric.NewDegradedComm(t, failed)
	if err != nil {
		return ScaleEval{}, err
	}
	dpt, err := fabric.Evaluate(comm, k, rate, mode)
	if errors.Is(err, fabric.ErrPartitioned) {
		se.Partitioned = true
		return se, nil
	}
	if err != nil {
		return ScaleEval{}, err
	}
	se.DegradedEfficiency = dpt.Efficiency
	return se, nil
}

// resolveKernels maps wire kernel names to Table I suite kernels.
func resolveKernels(names []string) ([]workload.Kernel, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: no kernels")
	}
	ks := make([]workload.Kernel, len(names))
	for i, n := range names {
		k, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		ks[i] = k
	}
	return ks, nil
}
