package exp

import (
	"fmt"
	"strings"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/serving"
	"ena/internal/workload"
)

// This file is the inference-serving experiment: the transformer-block
// presets swept over dynamic batch sizes through the roofline/core path
// (how throughput and per-block service time respond to batching in each
// phase), then each operating point replayed through the event-driven
// batched-FIFO server at a fixed fraction of its capacity to surface the
// latency distribution. A validation section overloads the server with
// single-kernel GEMM and attention presets and checks the event-driven
// throughput lands on the analytic roofline capacity — the acceptance gate
// tying the queueing model back to the closed-form one.

// inferenceBatches is the dynamic-batching sweep (the knob a serving tier
// actually turns).
var inferenceBatches = []int{1, 2, 4, 8, 16, 32}

const (
	inferenceSeq  = 2048 // prompt tokens per sequence (prefill rows)
	inferenceCtx  = 2048 // KV-cache depth (decode rows)
	inferenceLoad = 0.7  // offered QPS as a fraction of batched capacity

	inferenceRequests = 20000
	inferenceSeedBase = 1000

	// Validation presets run at this batch cap and this overload factor;
	// under sustained overload the server executes full batches, so the
	// achieved rate must reproduce the analytic batched capacity.
	validationBatch    = 8
	validationOverload = 3.0
)

// InferenceRow is one (phase, batch) operating point.
type InferenceRow struct {
	Phase string // "prefill" or "decode"
	Batch int

	// BlockTFLOPs is the roofline application throughput of the transformer
	// block at this batch; ServiceUs is one block's execution time, the
	// serving simulator's per-batch service quantum.
	BlockTFLOPs float64
	ServiceUs   float64
	// CapacityRPS is the analytic saturated-server request rate
	// (batch / service time); OfferedQPS is the simulated load.
	CapacityRPS float64
	OfferedQPS  float64

	Serving serving.Result
}

// InferenceValidation compares the event-driven server's saturated
// throughput against the analytic roofline capacity for one kernel preset.
type InferenceValidation struct {
	Kernel      string
	Batch       int
	AnalyticRPS float64
	EventRPS    float64
	RelErr      float64
}

// InferenceResult is the inference experiment output.
type InferenceResult struct {
	Batches    []int
	Requests   int
	Load       float64
	Rows       []InferenceRow
	Validation []InferenceValidation
}

// blockServiceNs builds the per-batch service-time table for a transformer
// phase on the best-mean EHP: entry b-1 is the block's roofline execution
// time (ns) when b requests are coalesced. This is where batching economics
// enter — the GEMM phases amortize weight traffic with batch while decode
// attention's KV streaming does not, so decode service grows nearly
// linearly and prefill sublinearly.
func blockServiceNs(block func(batch int) workload.TransformerBlock, maxBatch int) ([]float64, []float64, error) {
	cfg := arch.BestMeanEHP()
	svc := make([]float64, maxBatch)
	tflops := make([]float64, maxBatch)
	for b := 1; b <= maxBatch; b++ {
		app, err := block(b).App()
		if err != nil {
			return nil, nil, err
		}
		r, err := core.SimulateApp(cfg, app, core.Options{})
		if err != nil {
			return nil, nil, err
		}
		tflops[b-1] = r.TFLOPs
		svc[b-1] = block(b).FLOPs() / (r.TFLOPs * 1e3) // ns
	}
	return svc, tflops, nil
}

// specServiceNs is the single-kernel analogue for the validation presets.
func specServiceNs(spec workload.DLSpec, maxBatch int) ([]float64, error) {
	cfg := arch.BestMeanEHP()
	svc := make([]float64, maxBatch)
	for b := 1; b <= maxBatch; b++ {
		sb, err := spec.WithBatch(b)
		if err != nil {
			return nil, err
		}
		k, err := sb.Kernel()
		if err != nil {
			return nil, err
		}
		r := core.Simulate(cfg, k, core.Options{})
		svc[b-1] = sb.FLOPs() / (r.Perf.TFLOPs * 1e3)
	}
	return svc, nil
}

// Inference runs the experiment with the default worker count.
func Inference() InferenceResult { return InferenceWorkers(8) }

// InferenceWorkers runs the batch sweep with the given parallelism; results
// are bit-identical for any worker count (fixed result slots, per-row seeds,
// and a serving simulator that is deterministic by construction).
func InferenceWorkers(workers int) InferenceResult {
	out := InferenceResult{
		Batches:  inferenceBatches,
		Requests: inferenceRequests,
		Load:     inferenceLoad,
	}
	maxBatch := inferenceBatches[len(inferenceBatches)-1]

	phases := []struct {
		name  string
		block func(batch int) workload.TransformerBlock
	}{
		{"prefill", func(b int) workload.TransformerBlock { return workload.TransformerPrefill(b, inferenceSeq) }},
		{"decode", func(b int) workload.TransformerBlock { return workload.TransformerDecode(b, inferenceCtx) }},
	}

	// Service tables first (serial: they share the memoized core path), then
	// the serving replays fan out.
	type job struct {
		phase  string
		batch  int
		svc    []float64 // per-batch service ns, indices 0..batch-1
		tflops float64
	}
	var jobs []job
	for _, ph := range phases {
		svc, tflops, err := blockServiceNs(ph.block, maxBatch)
		if err != nil {
			// Preset shapes are positive constants; an error here is a
			// programming bug, not an input condition.
			panic(err)
		}
		for _, b := range inferenceBatches {
			jobs = append(jobs, job{phase: ph.name, batch: b, svc: svc[:b], tflops: tflops[b-1]})
		}
	}

	out.Rows = make([]InferenceRow, len(jobs))
	parallelFor(len(jobs), workers, func(i int) {
		j := jobs[i]
		capacity := float64(j.batch) / j.svc[j.batch-1] * 1e9
		offered := inferenceLoad * capacity
		res, err := serving.Simulate(serving.Options{
			QPS:      offered,
			MaxBatch: j.batch,
			Requests: inferenceRequests,
			Seed:     inferenceSeedBase + int64(i),
			ServiceNs: func(b int) float64 {
				return j.svc[b-1]
			},
		})
		if err != nil {
			panic(err) // options are derived from validated presets
		}
		out.Rows[i] = InferenceRow{
			Phase:       j.phase,
			Batch:       j.batch,
			BlockTFLOPs: j.tflops,
			ServiceUs:   j.svc[j.batch-1] / 1e3,
			CapacityRPS: capacity,
			OfferedQPS:  offered,
			Serving:     res,
		}
	})

	out.Validation = inferenceValidation()
	return out
}

// inferenceValidation overloads the event-driven server with the
// single-kernel presets and reports event vs analytic throughput.
func inferenceValidation() []InferenceValidation {
	specs := []workload.DLSpec{
		workload.NewGEMM(4096, 4096, 4096, workload.FP16),
		workload.AttentionPrefill(1, 32, 2048, 128, workload.FP16),
		workload.AttentionDecode(1, 32, 2048, 128, workload.FP16),
	}
	out := make([]InferenceValidation, len(specs))
	for i, spec := range specs {
		svc, err := specServiceNs(spec, validationBatch)
		if err != nil {
			panic(err) // preset shapes are positive constants
		}
		analytic := float64(validationBatch) / svc[validationBatch-1] * 1e9
		res, err := serving.Simulate(serving.Options{
			QPS:       validationOverload * analytic,
			MaxBatch:  validationBatch,
			Requests:  inferenceRequests,
			Seed:      inferenceSeedBase + 500 + int64(i),
			ServiceNs: func(b int) float64 { return svc[b-1] },
		})
		if err != nil {
			panic(err)
		}
		out[i] = InferenceValidation{
			Kernel:      spec.String(),
			Batch:       validationBatch,
			AnalyticRPS: analytic,
			EventRPS:    res.AchievedRPS,
			RelErr:      res.AchievedRPS/analytic - 1,
		}
	}
	return out
}

// Render formats the batch sweep (one table per phase) and the validation
// section.
func (r InferenceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Inference serving on the best-mean EHP (transformer block: prefill seq %d, decode ctx %d; %d requests/point at %.0f%% of batched capacity)\n",
		inferenceSeq, inferenceCtx, r.Requests, r.Load*100)
	var cur string
	var t *table
	flush := func() {
		if t != nil {
			b.WriteString(t.String())
		}
	}
	for _, row := range r.Rows {
		if row.Phase != cur {
			flush()
			cur = row.Phase
			fmt.Fprintf(&b, "\n%s phase:\n", row.Phase)
			t = &table{header: []string{"batch", "block TFLOP/s", "service us", "capacity r/s", "offered q/s", "achieved r/s", "mean batch", "util", "p50 us", "p95 us", "p99 us"}}
		}
		t.addRow(
			fmt.Sprintf("%d", row.Batch),
			fmt.Sprintf("%.2f", row.BlockTFLOPs),
			fmt.Sprintf("%.1f", row.ServiceUs),
			fmt.Sprintf("%.0f", row.CapacityRPS),
			fmt.Sprintf("%.0f", row.OfferedQPS),
			fmt.Sprintf("%.0f", row.Serving.AchievedRPS),
			fmt.Sprintf("%.2f", row.Serving.MeanBatch),
			fmtPct(row.Serving.Utilization),
			fmt.Sprintf("%.1f", row.Serving.P50Ns/1e3),
			fmt.Sprintf("%.1f", row.Serving.P95Ns/1e3),
			fmt.Sprintf("%.1f", row.Serving.P99Ns/1e3),
		)
	}
	flush()
	b.WriteString("\nevent-driven vs analytic roofline capacity (saturated server):\n")
	vt := &table{header: []string{"kernel", "batch", "analytic r/s", "event r/s", "rel err"}}
	for _, v := range r.Validation {
		vt.addRow(v.Kernel, fmt.Sprintf("%d", v.Batch),
			fmt.Sprintf("%.0f", v.AnalyticRPS), fmt.Sprintf("%.0f", v.EventRPS), fmtPct(v.RelErr))
	}
	b.WriteString(vt.String())
	return b.String()
}
