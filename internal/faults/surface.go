package faults

import (
	"context"
	"errors"
	"fmt"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/dse"
	"ena/internal/noc"
	"ena/internal/perf"
	"ena/internal/workload"
)

// SurfaceOptions tunes a resilience-surface sweep.
type SurfaceOptions struct {
	// MaxFaults is the deepest failure count swept (default 4). The sweep
	// stops early when the mask runs out of units to kill.
	MaxFaults int
	// Seed drives victim selection (and the detailed NoC simulation).
	// Progressive steps are nested: step n kills a superset of step n-1's
	// victims.
	Seed int64
	// BudgetW is the feasibility budget (default the paper's 160 W).
	BudgetW float64
	// SimOpt forwards analytic-model options (policy, optimizations, ...).
	SimOpt core.Options
	// Detailed additionally runs the event-driven NoC simulation per step
	// and refines throughput with the measured loaded latency/bandwidth —
	// the only way link faults show up, at ~4 orders of magnitude more
	// runtime than the analytic model.
	Detailed bool
	// DetailedRequests bounds the detailed simulation (default 20000).
	DetailedRequests int
}

// SurfacePoint is one step of a resilience surface.
type SurfacePoint struct {
	Faults   int    // failed units of the swept component class
	Mask     string // resolved (fully targeted) mask
	CUs      int
	BWTBps   float64
	TFLOPs   float64
	NodeW    float64
	GFperW   float64
	RelPerf  float64 // vs the healthy node
	RelPower float64 // vs the healthy node
	BudgetW  float64 // budget-relevant power (package + background)
	Feasible bool    // within SurfaceOptions.BudgetW
	// Partitioned marks a detailed step whose link faults disconnected
	// the interposer network (throughput zero).
	Partitioned bool
	// Detailed-simulation measurements (zero unless Detailed).
	MeanLatencyNs float64
	SustainedGBps float64
}

// Surface is a workload's performance/power trajectory under progressive
// failure of one component class — the degraded-mode model that replaces the
// binary up/down assumption in the RAS analysis (ras.DegradedThroughput).
type Surface struct {
	Kernel    string
	Component Component
	Seed      int64
	BudgetW   float64
	Points    []SurfacePoint
}

// RelPerfs returns the per-step relative performance (index = failed units),
// the shape ras.DegradedThroughput consumes.
func (s Surface) RelPerfs() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.RelPerf
	}
	return out
}

// ResilienceSurface sweeps progressive failures of one component class
// (masks "comp:0" through "comp:MaxFaults") on base, re-running the analytic
// model — and, when requested, the detailed NoC simulator — at every step.
// The sweep is deterministic per (base, kernel, component, seed) and stops
// early once the class runs out of units.
func ResilienceSurface(ctx context.Context, base *arch.NodeConfig, k workload.Kernel, comp Component, o SurfaceOptions) (Surface, error) {
	if o.MaxFaults <= 0 {
		o.MaxFaults = 4
	}
	if o.BudgetW == 0 {
		o.BudgetW = arch.NodePowerBudgetW
	}
	if o.DetailedRequests <= 0 {
		o.DetailedRequests = 20_000
	}
	out := Surface{Kernel: k.Name, Component: comp, Seed: o.Seed, BudgetW: o.BudgetW}

	var healthy core.Result
	for n := 0; n <= o.MaxFaults; n++ {
		if err := ctx.Err(); err != nil {
			return Surface{}, err
		}
		var mask Mask
		if n > 0 {
			mask = Mask{Entries: []Entry{{Comp: comp, Count: n}}}
		}
		inj, err := Apply(base, mask, o.Seed)
		if err != nil {
			if errors.Is(err, ErrNodeDead) || n > 0 {
				break // out of units: the surface ends here
			}
			return Surface{}, err
		}
		p, err := evaluateStep(ctx, inj, k, o, n, &healthy)
		if err != nil {
			return Surface{}, err
		}
		out.Points = append(out.Points, p)
	}
	if len(out.Points) == 0 {
		return Surface{}, fmt.Errorf("faults: empty resilience surface for %s on %s", comp, base.Name)
	}
	return out, nil
}

// evaluateStep simulates one injection and fills a surface point. healthy is
// captured at step 0 and used as the baseline for the relative columns.
func evaluateStep(ctx context.Context, inj *Injection, k workload.Kernel, o SurfaceOptions, n int, healthy *core.Result) (SurfacePoint, error) {
	cfg := inj.Config
	res, err := core.SimulateContext(ctx, cfg, k, o.SimOpt)
	if err != nil {
		return SurfacePoint{}, err
	}
	p := SurfacePoint{
		Faults: n,
		Mask:   inj.Resolved.String(),
		CUs:    cfg.TotalCUs(),
		BWTBps: cfg.InPackageBWTBps(),
		TFLOPs: res.Perf.TFLOPs,
		NodeW:  res.NodeW,
		GFperW: res.GFperW,
	}
	ev, err := dse.EvaluateConfigContext(ctx, cfg, []workload.Kernel{k}, o.BudgetW, o.SimOpt.Optimizations)
	if err != nil {
		return SurfacePoint{}, err
	}
	p.BudgetW = ev.BudgetW[0]
	p.Feasible = ev.FeasibleAll

	if o.Detailed {
		nr, err := noc.SimulateContext(ctx, cfg, k, noc.Options{
			Seed:      o.Seed,
			Requests:  o.DetailedRequests,
			DownLinks: inj.DownLinks,
		})
		switch {
		case errors.Is(err, noc.ErrPartitioned):
			p.Partitioned = true
			p.TFLOPs = 0
			p.GFperW = 0
		case err != nil:
			return SurfacePoint{}, err
		default:
			p.MeanLatencyNs = nr.MeanLatencyNs
			p.SustainedGBps = nr.SustainedGBps
			// Refine throughput with the measured memory environment.
			pr := perf.Estimate(cfg, k, nr.Env(cfg))
			p.TFLOPs = pr.TFLOPs
			if p.NodeW > 0 {
				p.GFperW = p.TFLOPs * 1000 / p.NodeW
			}
		}
	}

	if n == 0 {
		*healthy = res
		if o.Detailed {
			healthy.Perf.TFLOPs = p.TFLOPs
		}
	}
	if healthy.Perf.TFLOPs > 0 {
		p.RelPerf = p.TFLOPs / healthy.Perf.TFLOPs
	}
	if healthy.NodeW > 0 {
		p.RelPower = p.NodeW / healthy.NodeW
	}
	return p, nil
}
