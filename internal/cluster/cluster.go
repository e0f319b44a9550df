// Package cluster shards sweep-shaped service jobs across enaserve worker
// processes. A coordinator deterministically partitions a job's index space
// — design points for /v1/explore, node counts for /v1/scale — into
// contiguous shards, fans them out to worker peers over HTTP, streams
// per-item results back as they complete, retries failed shards on the
// surviving workers (falling back to local evaluation when none survive),
// and merges to the bit-identical single-process answer.
//
// Bit-identity holds by construction: every item is a pure function of the
// request (dse.EvaluatePointContext for explore points, EvalScale for scale
// sizes), shards cover the index space exactly once, results are merged
// positionally, and the sequential scoring/selection tail (dse.Finalize)
// runs on the merged slice exactly as a local sweep would have run it.
//
// Wire protocol: POST /v1/internal/shard/{explore,scale} with a shard
// request; the response is an NDJSON stream of one line per completed item
// (carrying its index, so completion order is free to vary) terminated by a
// "done" line with the item count. A stream that ends without "done" is a
// failed shard.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"ena/internal/dse"
	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/workload"
)

// protoVersion guards the shard wire format; a worker rejects mismatched
// requests so mixed-version fleets fail loudly instead of merging garbage.
// v2 added the packaging axes (chiplet count / HBM stack capacity /
// external-chain depth) and explicit point-list shards for surrogate
// acquisition batches; v1 peers would silently drop those fields, so the
// bump is deliberate.
const protoVersion = 2

// ExploreShardRequest asks a worker to evaluate design points [Start, End).
// In grid form (Points empty) the indices address the canonical enumeration
// of the given space (dse.Space.Points order, packaging axes included). In
// list form (Points non-empty — surrogate acquisition batches) the worker
// evaluates exactly the listed points, and Start/End address the job's
// global evaluation slots so streamed indices merge positionally:
// End-Start must equal len(Points), and Points[i] reports index Start+i.
type ExploreShardRequest struct {
	V           int         `json:"v"`
	CUs         []int       `json:"cus,omitempty"`
	FreqsMHz    []float64   `json:"freqs_mhz,omitempty"`
	BWsTBps     []float64   `json:"bws_tbps,omitempty"`
	GPUChiplets []int       `json:"gpu_chiplets,omitempty"`
	HBMStackGBs []float64   `json:"hbm_stack_gbs,omitempty"`
	ExtModules  []int       `json:"ext_modules,omitempty"`
	Points      []dse.Point `json:"points,omitempty"`
	Kernels     []string    `json:"kernels"`
	BudgetW     float64     `json:"budget_w"`
	Opts        uint        `json:"opts"`
	Start       int         `json:"start"`
	End         int         `json:"end"`
}

// ScaleShardRequest asks a worker to evaluate the given node counts of a
// machine-scale projection (a contiguous slice of the job's size list).
type ScaleShardRequest struct {
	V         int     `json:"v"`
	Kernel    string  `json:"kernel"`
	Topology  string  `json:"topology"`
	Sizes     []int   `json:"sizes"`
	Mode      string  `json:"mode"`
	LinkGBps  float64 `json:"link_gbps"`
	LatencyNs float64 `json:"latency_ns"`
	Ideal     bool    `json:"ideal"`
	Mask      string  `json:"mask"`
	Seed      int64   `json:"seed"`
	Start     int     `json:"start"`
	End       int     `json:"end"`
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

// shardLine is one line of a shard response stream.
type shardLine struct {
	Type  string     `json:"type"` // "eval" | "scale" | "done" | "error"
	Index int        `json:"index,omitempty"`
	Eval  *dse.Eval  `json:"eval,omitempty"`
	Scale *ScaleEval `json:"scale,omitempty"`
	Count int        `json:"count,omitempty"`
	Error string     `json:"error,omitempty"`
}

func (l shardLine) encode() []byte {
	b, err := json.Marshal(l)
	if err != nil {
		// Lines hold only scalars and plain structs; this cannot fail.
		panic("cluster: line marshal: " + err.Error())
	}
	return append(b, '\n')
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

// parseMode resolves a wire scaling mode.
func parseMode(s string) (fabric.Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "weak":
		return fabric.Weak, nil
	case "strong":
		return fabric.Strong, nil
	}
	return 0, fmt.Errorf("cluster: unknown mode %q (want strong or weak)", s)
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

// space reconstructs the dse.Space of a grid-form explore shard request.
func (r ExploreShardRequest) space() dse.Space {
	return dse.Space{
		CUs: r.CUs, FreqsMHz: r.FreqsMHz, BWsTBps: r.BWsTBps,
		GPUChiplets: r.GPUChiplets, HBMStackGBs: r.HBMStackGBs, ExtModules: r.ExtModules,
	}
}
