package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ena/internal/cluster"
	"ena/internal/exp"
	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/workload"
)

// POST /v1/scale: machine-scale projection on the explicit inter-node
// fabric. The request names a kernel, a topology kind and a list of node
// counts; the job chains the detailed node simulation (sustained TFLOP/s on
// the best-mean EHP) into the analytic collective cost model and returns
// strong- or weak-scaling efficiency per size. A fault mask with node terms
// (faults grammar: "node@3" targeted, "node:2" seeded count) additionally
// reroutes the collectives around the dead nodes and reports the degraded
// efficiency alongside.
//
// Scale jobs ride the same scheduler (async 202 + job id, shed only by its
// bounded queue) and result cache (canonical-JSON key) as /v1/explore.

// ScaleRequest is the body of POST /v1/scale. Kernel is required; Topology
// defaults to "torus", Nodes to the node -> rack -> machine walk
// {1, 50, 1000, 20000, 100000}, Mode to "weak". Zero link parameters take
// the reference fabric (50 GB/s, 500 ns); Ideal replaces the fabric with a
// zero-cost one (the §V-F arithmetic, for calibration). FaultMask accepts
// node terms only and caps every requested size at 4096 nodes.
type ScaleRequest struct {
	Kernel     string  `json:"kernel"`
	Topology   string  `json:"topology,omitempty"`
	Nodes      []int   `json:"nodes,omitempty"`
	Mode       string  `json:"mode,omitempty"`
	LinkGBps   float64 `json:"link_gbps,omitempty"`
	LatencyNs  float64 `json:"latency_ns,omitempty"`
	Ideal      bool    `json:"ideal,omitempty"`
	FaultMask  string  `json:"fault_mask,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// ScalePoint is one node count's evaluation. The degraded fields appear only
// when the request carried a fault mask: FailedNodes counts the victims and
// DegradedEfficiency is the efficiency with collectives rerouted around
// them; Partitioned marks a mask that disconnects the topology (delivered
// throughput zero).
type ScalePoint struct {
	Nodes              int     `json:"nodes"`
	Efficiency         float64 `json:"efficiency"`
	DeliveredEF        float64 `json:"delivered_ef"`
	IdealEF            float64 `json:"ideal_ef"`
	FailedNodes        int     `json:"failed_nodes,omitempty"`
	DegradedEfficiency float64 `json:"degraded_efficiency,omitempty"`
	Partitioned        bool    `json:"partitioned,omitempty"`
}

// ScaleResult is a completed scale job's result payload.
type ScaleResult struct {
	Key        string       `json:"key"`
	Kernel     string       `json:"kernel"`
	Topology   string       `json:"topology"`
	Mode       string       `json:"mode"`
	LinkGBps   float64      `json:"link_gbps"`
	LatencyNs  float64      `json:"latency_ns"`
	Ideal      bool         `json:"ideal,omitempty"`
	NodeTFLOPs float64      `json:"node_tflops"`
	FaultMask  string       `json:"fault_mask,omitempty"`
	Seed       int64        `json:"seed,omitempty"`
	Points     []ScalePoint `json:"points"`
}

// scaleJob is a resolved, validated scale request.
type scaleJob struct {
	kernel  workload.Kernel
	kind    string
	sizes   []int
	mode    fabric.Mode
	spec    fabric.LinkSpec
	mask    faults.Mask
	maskStr string
	seed    int64
	timeout time.Duration
	key     string
}

// scaleCanon is the canonical-JSON form hashed into a scale cache key
// (V bumps when any field's semantics change). The mask is the parsed
// grammar's canonical rendering, so equivalent spellings share a slot; the
// seed only matters when a count term leaves victims to chance, but keying
// on it unconditionally is merely a little conservative.
type scaleCanon struct {
	V         int     `json:"v"`
	Kernel    string  `json:"kernel"`
	Topology  string  `json:"topology"`
	Nodes     []int   `json:"nodes"`
	Mode      string  `json:"mode"`
	LinkGBps  float64 `json:"link_gbps"`
	LatencyNs float64 `json:"latency_ns"`
	Ideal     bool    `json:"ideal"`
	Mask      string  `json:"mask"`
	Seed      int64   `json:"seed"`
}

// resolve validates the request, applies defaults, and derives the canonical
// cache key. Errors are client errors (HTTP 400).
func (r ScaleRequest) resolve() (scaleJob, error) {
	if r.Kernel == "" {
		return scaleJob{}, fmt.Errorf("kernel is required (one of %s)", strings.Join(workload.Names(), ", "))
	}
	k, err := workload.ByName(r.Kernel)
	if err != nil {
		return scaleJob{}, err
	}
	kind, err := cluster.ParseTopology(r.Topology)
	if err != nil {
		return scaleJob{}, err
	}
	sizes := []int{1, 50, 1000, 20000, 100000}
	if len(r.Nodes) > 0 {
		sizes = sortedUniqueInts(r.Nodes)
	}
	mode, err := cluster.ParseMode(r.Mode)
	if err != nil {
		return scaleJob{}, err
	}
	if r.LinkGBps < 0 || r.LatencyNs < 0 {
		return scaleJob{}, fmt.Errorf("negative link parameters (%v GB/s, %v ns)", r.LinkGBps, r.LatencyNs)
	}
	spec := fabric.DefaultLinkSpec()
	if r.LinkGBps > 0 {
		spec.BandwidthGBps = r.LinkGBps
	}
	if r.LatencyNs > 0 {
		spec.LatencyNs = r.LatencyNs
	}
	if r.Ideal {
		spec = fabric.IdealLinkSpec()
	}
	mask, err := cluster.ParseScaleMask(r.FaultMask)
	if err != nil {
		return scaleJob{}, err
	}
	if err := cluster.CheckScaleSizes(sizes, !mask.Empty()); err != nil {
		return scaleJob{}, err
	}
	var maskStr string
	if !mask.Empty() {
		maskStr = mask.String()
	}
	timeout, err := jobTimeoutOf(r.TimeoutSec)
	if err != nil {
		return scaleJob{}, err
	}
	key := hashCanon(scaleCanon{
		V:         1,
		Kernel:    k.Name,
		Topology:  kind,
		Nodes:     sizes,
		Mode:      mode.String(),
		LinkGBps:  spec.BandwidthGBps,
		LatencyNs: spec.LatencyNs,
		Ideal:     spec.Ideal,
		Mask:      maskStr,
		Seed:      r.Seed,
	})
	return scaleJob{
		kernel:  k,
		kind:    kind,
		sizes:   sizes,
		mode:    mode,
		spec:    spec,
		mask:    mask,
		maskStr: maskStr,
		seed:    r.Seed,
		timeout: timeout,
		key:     key,
	}, nil
}

func (s *Server) handleScale(w http.ResponseWriter, r *http.Request) {
	var req ScaleRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sj, err := req.resolve()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.acceptJob(w, "scale", sj.key, req, s.jobTimeout(sj.timeout), jobRunner(s.cache, sj.key, sj, s.scale))
}

// scale runs one resolved scale job: every node count through
// cluster.EvalScale — the healthy analytic point plus, when the mask kills
// nodes, the degraded re-evaluation with collectives rerouted around the
// victims. With worker peers configured, the size list is sharded across
// them; EvalScale is a pure function of the job, so the sharded evaluations
// are bit-identical to the local loop below (a degraded mask that
// disconnects the survivors is a partitioned point, not a job error — the
// client asked what that failure does, and the answer is "no machine left").
func (s *Server) scale(ctx context.Context, sj scaleJob) (ScaleResult, error) {
	rate := exp.NodeRateFor(sj.kernel)
	out := ScaleResult{
		Key:        sj.key,
		Kernel:     sj.kernel.Name,
		Topology:   sj.kind,
		Mode:       sj.mode.String(),
		LinkGBps:   sj.spec.BandwidthGBps,
		LatencyNs:  sj.spec.LatencyNs,
		Ideal:      sj.spec.Ideal,
		NodeTFLOPs: rate,
		FaultMask:  sj.maskStr,
	}
	if sj.maskStr != "" {
		out.Seed = sj.seed
	}
	evals, err := s.scaleEvals(ctx, sj, rate)
	if err != nil {
		return ScaleResult{}, err
	}
	for i, se := range evals {
		sp := ScalePoint{
			Nodes:       sj.sizes[i],
			Efficiency:  se.Point.Efficiency,
			DeliveredEF: se.Point.DeliveredTFLOPs / 1e6,
			IdealEF:     rate * float64(sj.sizes[i]) / 1e6,
			FailedNodes: se.FailedNodes,
			Partitioned: se.Partitioned,
		}
		if !se.Partitioned {
			sp.DegradedEfficiency = se.DegradedEfficiency
		}
		out.Points = append(out.Points, sp)
	}
	return out, nil
}

// scaleEvals evaluates the job's node counts — through the coordinator when
// peers or a checkpoint store are configured, locally otherwise.
func (s *Server) scaleEvals(ctx context.Context, sj scaleJob, rate float64) ([]cluster.ScaleEval, error) {
	if s.coord.Active() {
		return s.coord.Scale(ctx, sj.kind, sj.spec, sj.kernel, rate, sj.sizes, sj.mode, sj.mask, sj.maskStr, sj.seed, sj.key)
	}
	evals := make([]cluster.ScaleEval, len(sj.sizes))
	err := cluster.ParallelRange(ctx, len(sj.sizes), func(_ context.Context, i int) error {
		se, err := cluster.EvalScale(sj.kind, sj.spec, sj.kernel, rate, sj.sizes[i], sj.mode, sj.mask, sj.seed)
		if err != nil {
			return err
		}
		evals[i] = se
		return nil
	})
	if err != nil {
		return nil, err
	}
	return evals, nil
}
