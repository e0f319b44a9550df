package exp

import (
	"fmt"
	"strings"
	"sync"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/fabric"
	"ena/internal/ras"
	"ena/internal/workload"
)

// This file holds the machine-scale experiments built on internal/fabric:
// the strong/weak scaling curves from node to rack to full system, and the
// whole-node-failure analogue of the component resilience experiment.

// scalingKernels are the workloads the scaling experiment sweeps: the
// compute-bound ceiling, a balanced dynamics code, and a memory-bound
// multigrid solver — the three communication personalities.
func scalingKernels() []workload.Kernel {
	return []workload.Kernel{workload.MaxFlops(), workload.CoMD(), workload.HPGMG()}
}

// scalingSizes walks node -> chassis -> rack -> row -> full §V-F machine.
var scalingSizes = []int{1, 50, 1000, 20000, 100000}

// nodeRates memoizes the per-kernel sustained node rate (one detailed node
// simulation each) shared by both fabric experiments and the service.
var (
	rateOnce  sync.Once
	rateCache map[string]float64
)

// NodeRateFor returns kernel k's sustained TFLOP/s on the best-mean EHP.
func NodeRateFor(k workload.Kernel) float64 {
	rateOnce.Do(func() {
		rateCache = map[string]float64{}
		for _, kk := range workload.Suite() {
			rateCache[kk.Name] = core.Simulate(arch.BestMeanEHP(), kk, core.Options{}).Perf.TFLOPs
		}
	})
	if r, ok := rateCache[k.Name]; ok {
		return r
	}
	return core.Simulate(arch.BestMeanEHP(), k, core.Options{}).Perf.TFLOPs
}

// ScalingRow is one (topology, mode, kernel, node count) evaluation.
type ScalingRow struct {
	Topology   string
	Mode       string
	Kernel     string
	Nodes      int
	Efficiency float64
	// DeliveredEF is the fabric-aware machine throughput in ExaFLOP/s;
	// IdealEF is the paper's §V-F arithmetic (rate * nodes), which the
	// delivered number reduces to under an ideal fabric.
	DeliveredEF float64
	IdealEF     float64
}

// ScalingResult is the strong/weak scaling experiment output.
type ScalingResult struct {
	LinkBWGBps float64
	LatencyNs  float64
	Rows       []ScalingRow
}

// Scaling evaluates strong- and weak-scaling efficiency for every topology
// kind, scaling kernel and machine size on the finite reference fabric,
// using the analytic collective cost model throughout (the property tests
// pin it against the event-driven replay at small scale).
func Scaling() ScalingResult {
	spec := fabric.DefaultLinkSpec()
	out := ScalingResult{LinkBWGBps: spec.BandwidthGBps, LatencyNs: spec.LatencyNs}
	var series []fabric.Series
	for _, mode := range []fabric.Mode{fabric.Strong, fabric.Weak} {
		for _, k := range scalingKernels() {
			series = append(series, fabric.Series{Kernel: k, NodeTFLOPs: NodeRateFor(k), Mode: mode})
		}
	}
	for _, kind := range fabric.Kinds() {
		curves, err := fabric.Curves(kind, spec, series, scalingSizes)
		if err != nil {
			continue
		}
		for i, s := range series {
			for _, pt := range curves[i] {
				out.Rows = append(out.Rows, ScalingRow{
					Topology:    kind,
					Mode:        s.Mode.String(),
					Kernel:      s.Kernel.Name,
					Nodes:       pt.Nodes,
					Efficiency:  pt.Efficiency,
					DeliveredEF: pt.DeliveredTFLOPs / 1e6,
					IdealEF:     s.NodeTFLOPs * float64(pt.Nodes) / 1e6,
				})
			}
		}
	}
	return out
}

// Render formats the scaling curves as one table per (topology, mode).
func (r ScalingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Strong/weak scaling on the explicit fabric (%g GB/s links, %g ns hops)\n",
		r.LinkBWGBps, r.LatencyNs)
	var cur string
	var t *table
	flush := func() {
		if t != nil {
			b.WriteString(t.String())
		}
	}
	for _, row := range r.Rows {
		if key := row.Topology + "/" + row.Mode; key != cur {
			flush()
			cur = key
			fmt.Fprintf(&b, "\n%s, %s scaling:\n", row.Topology, row.Mode)
			t = &table{header: []string{"kernel", "nodes", "efficiency", "delivered EF", "§V-F ideal EF"}}
		}
		t.addRow(
			row.Kernel,
			fmt.Sprintf("%d", row.Nodes),
			fmtPct(row.Efficiency),
			fmt.Sprintf("%.4f", row.DeliveredEF),
			fmt.Sprintf("%.4f", row.IdealEF),
		)
	}
	flush()
	return b.String()
}

// FabricResilienceResult is the whole-node-failure experiment: progressive
// seed-chosen node deaths on the reference torus, collectives rerouted
// around the victims, folded into the steady-state degraded-throughput
// model at the analyzed per-node FIT rate.
type FabricResilienceResult struct {
	Topology string
	Kernel   string
	Nodes    int
	Seed     int64
	NodeFIT  float64
	// RelPerf[k] is delivered throughput with k nodes dead relative to
	// healthy; Degraded is its steady-state expectation.
	RelPerf  []float64
	Degraded ras.DegradedResult
}

// FabricResilience runs the machine-scope analogue of the component
// resilience experiment: an 8x8x8 torus running CoMD under weak scaling,
// killing one more node at a time (the fault grammar's node:k terms route
// here via cmd/enafault and /v1/scale).
func FabricResilience() FabricResilienceResult {
	const (
		seed    = 1
		maxDead = 8
	)
	k := workload.CoMD()
	out := FabricResilienceResult{Kernel: k.Name, Seed: seed}
	t, err := fabric.NewTorus(8, 8, 8, fabric.DefaultLinkSpec())
	if err != nil {
		return out
	}
	out.Topology = t.Name()
	out.Nodes = t.Nodes()
	out.NodeFIT = ras.Analyze(arch.BestMeanEHP(), ras.DefaultConfig(), t.Nodes()).NodeFIT
	res, err := fabric.AnalyzeNodeFailures(t, k, NodeRateFor(k), fabric.Weak, maxDead, seed, out.NodeFIT, mttrHours)
	if err != nil {
		return out
	}
	out.RelPerf = res.RelPerf
	out.Degraded = res.Degraded
	return out
}

// Render formats the node-failure surface and its steady-state expectation.
func (r FabricResilienceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Whole-node failures on %s running %s (seed %d, %.0f FIT/node, %d h MTTR)\n",
		r.Topology, r.Kernel, r.Seed, r.NodeFIT, mttrHours)
	t := &table{header: []string{"dead nodes", "rel perf"}}
	for k, rel := range r.RelPerf {
		t.addRow(fmt.Sprintf("%d", k), fmtPct(rel))
	}
	b.WriteString(t.String())
	d := r.Degraded
	fmt.Fprintf(&b, "steady state: E[rel perf] %s vs binary up/down %s (graceful-degradation gain %+.4f pp)\n",
		fmtPct(d.ExpectedRelPerf), fmtPct(d.BinaryRelPerf), d.DegradedGain*100)
	return b.String()
}
