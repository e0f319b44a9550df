// Package core is the paper's primary contribution assembled: the Exascale
// Node Architecture model. It ties the hardware description (internal/arch),
// kernel characterizations (internal/workload), the analytic roofline
// (internal/perf), the two-level memory system (internal/memsys), the
// component power model (internal/power), and the §V-E optimizations
// (internal/powopt) into a single high-level node simulation — the same
// structure as the in-house simulator the paper's methodology describes
// (§III) — plus the system-level exascale projection of §V-F.
package core

import (
	"context"
	"fmt"
	"sync"

	"ena/internal/arch"
	"ena/internal/memsys"
	"ena/internal/perf"
	"ena/internal/power"
	"ena/internal/powopt"
	"ena/internal/workload"
)

// Options tunes one node simulation.
type Options struct {
	// MissFrac is the fraction of DRAM traffic served by external memory.
	// Zero (the default) models an in-package-resident working set, the
	// assumption behind the paper's performance figures; Fig. 8 sweeps
	// it, and UseAppExtTraffic derives it from the kernel.
	MissFrac float64

	// UseAppExtTraffic sets MissFrac from the kernel's characterized
	// external-traffic share under software management (Fig. 9 accounts
	// external-memory power this way).
	UseAppExtTraffic bool

	// Policy selects the memory-management mode when UseAppExtTraffic is
	// set (default: SoftwareManaged, the paper's primary mode).
	Policy memsys.Policy

	// Optimizations applies the §V-E power-saving techniques.
	Optimizations powopt.Technique

	// TempC is the die temperature used for leakage (0 = reference).
	TempC float64

	// ExcludeExternal drops the external-memory network from the power
	// accounting (the peak-compute scenario of Fig. 14 reports
	// compute-focused node power).
	ExcludeExternal bool
}

// Result is one simulated (configuration, kernel) outcome.
type Result struct {
	Config *arch.NodeConfig
	Kernel workload.Kernel

	Perf  perf.Result
	Power power.Breakdown

	MissFrac float64
	NodeW    float64 // total accounted node power
	GFperW   float64 // energy efficiency
}

// PerfPhase is the optimization-independent phase of one node simulation:
// the resolved external-memory miss fraction, the roofline performance
// estimate, and the pre-optimization component power breakdown. The §V-E
// power optimizations transform the breakdown (powopt.Apply) but never the
// inputs feeding it, so a PerfPhase computed once can be replayed against
// any Optimizations or ExcludeExternal setting via SimulateFromPerf — the
// invariant the DSE's sweep-level cache builds on. Replay across Options
// that differ in MissFrac, UseAppExtTraffic, Policy or TempC is NOT valid:
// those shape the phase itself.
type PerfPhase struct {
	MissFrac  float64
	Perf      perf.Result
	BasePower power.Breakdown // component power before §V-E optimizations
}

// SimulatePerf runs the optimization-independent phase of the model. The
// Options fields consumed downstream of the phase (Optimizations,
// ExcludeExternal) are ignored here by construction.
func SimulatePerf(cfg *arch.NodeConfig, k workload.Kernel, opt Options) (pp PerfPhase) {
	simulatePerf(&pp, cfg, &k, &opt)
	return pp
}

// simulatePerf is SimulatePerf writing into pp. The phase and its inputs go
// by pointer: PerfPhase is 168 bytes and Kernel 152, and copying them across
// every call boundary of the split phases costs as much as the roll-up.
func simulatePerf(pp *PerfPhase, cfg *arch.NodeConfig, k *workload.Kernel, opt *Options) {
	miss := opt.MissFrac
	if opt.UseAppExtTraffic {
		miss = memsys.MissFrac(cfg, *k, opt.Policy)
	}
	env := memsys.Env(cfg, *k, miss)
	pp.MissFrac = miss
	pp.Perf = perf.Estimate(cfg, *k, env)
	remote := (1 - k.CacheLocality) * float64(arch.GPUChipletCount-1) / float64(arch.GPUChipletCount)
	d := power.Demand{
		Activity:       k.Activity,
		BusyFrac:       1,
		TrafficTBps:    pp.Perf.TrafficTBps,
		ExtTrafficTBps: pp.Perf.TrafficTBps * pp.MissFrac,
		ExtWriteFrac:   k.WriteFrac,
		RemoteFrac:     remote,
		CPUActivity:    0.10 + k.SerialFrac*20,
		TempC:          opt.TempC,
	}
	pp.BasePower = power.Compute(cfg, d)
}

// SimulateFromPerf completes a simulation from a precomputed phase: the
// selected power optimizations and the result roll-up. Simulate is these two
// phases back to back, so replaying a cached phase is bit-identical to a
// fresh simulation.
func SimulateFromPerf(cfg *arch.NodeConfig, k workload.Kernel, opt Options, pp PerfPhase) Result {
	return pp.Complete(cfg, k, opt)
}

// Complete is SimulateFromPerf on a phase held by pointer, so that replaying
// a cached phase does not copy it.
func (pp *PerfPhase) Complete(cfg *arch.NodeConfig, k workload.Kernel, opt Options) (res Result) {
	completeFromPerf(&res, cfg, &k, &opt, pp)
	return res
}

// completeFromPerf writes SimulateFromPerf's result into res.
func completeFromPerf(res *Result, cfg *arch.NodeConfig, k *workload.Kernel, opt *Options, pp *PerfPhase) {
	res.Config = cfg
	res.Kernel = *k
	res.Perf = pp.Perf
	res.Power = powopt.Apply(pp.BasePower, *k, cfg.GPUFreqMHz(), opt.Optimizations)
	res.MissFrac = pp.MissFrac
	if opt.ExcludeExternal {
		res.NodeW = res.Power.PackageW()
	} else {
		res.NodeW = res.Power.Total()
	}
	if res.NodeW > 0 {
		res.GFperW = pp.Perf.TFLOPs * 1000 / res.NodeW
	}
}

// Simulate runs the high-level model: the optimization-independent phase,
// then the optimizations and roll-up.
func Simulate(cfg *arch.NodeConfig, k workload.Kernel, opt Options) (res Result) {
	var pp PerfPhase
	simulatePerf(&pp, cfg, &k, &opt)
	completeFromPerf(&res, cfg, &k, &opt, &pp)
	return res
}

// SimulateContext is Simulate with cooperative cancellation: it returns
// ctx.Err() without running the model when ctx is already done. One node
// simulation is a sub-millisecond analytic evaluation, so the check-before-run
// granularity is what callers iterating over many (config, kernel) pairs —
// the DSE sweep, the service layer — need to abort promptly between
// evaluations.
func SimulateContext(ctx context.Context, cfg *arch.NodeConfig, k workload.Kernel, opt Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return Simulate(cfg, k, opt), nil
}

// BudgetPowerW is the quantity the 160 W DSE budget constrains: package
// power plus the external network's background power. The paper's
// exploration assumes in-package-resident working sets, so external dynamic
// power is excluded from the budget check (it is studied separately in
// Fig. 9).
func BudgetPowerW(cfg *arch.NodeConfig, k workload.Kernel, opts powopt.Technique) float64 {
	r := Simulate(cfg, k, Options{Optimizations: opts})
	return r.Power.PackageW() + r.Power.ExtStatic + r.Power.SerDesStatic
}

// kernelKey is the comparable identity of a kernel for memoization: every
// field that feeds the performance model. Kernel itself is not map-usable
// (its Trace field is a func), but Trace never influences the analytic
// reference simulation.
type kernelKey struct {
	name            string
	category        workload.Category
	intensity       float64
	maxUtilization  float64
	mlpPerCU        float64
	activity        float64
	cacheLocality   float64
	extTrafficFrac  float64
	writeFrac       float64
	footprintGB     float64
	thrashOPB       float64
	thrashSlope     float64
	serialFrac      float64
	cuScalingGamma  float64
	compressibility float64
}

func keyOf(k workload.Kernel) kernelKey {
	return kernelKey{
		name:            k.Name,
		category:        k.Category,
		intensity:       k.Intensity,
		maxUtilization:  k.MaxUtilization,
		mlpPerCU:        k.MLPPerCU,
		activity:        k.Activity,
		cacheLocality:   k.CacheLocality,
		extTrafficFrac:  k.ExtTrafficFrac,
		writeFrac:       k.WriteFrac,
		footprintGB:     k.FootprintGB,
		thrashOPB:       k.ThrashOPB,
		thrashSlope:     k.ThrashSlope,
		serialFrac:      k.SerialFrac,
		cuScalingGamma:  k.CUScalingGamma,
		compressibility: k.Compressibility,
	}
}

// refPerf memoizes each kernel's throughput on the fixed best-mean
// reference configuration. The figure-render loops call NormalizedPerf for
// hundreds of candidate configs per kernel; without the memo every call
// re-simulated the same reference point.
var refPerf struct {
	mu sync.Mutex
	m  map[kernelKey]float64
}

// NormalizedPerf returns a kernel's throughput on cfg divided by its
// throughput on the paper's best-mean configuration — the y-axis of
// Figs. 4-6 ("Perf. normalized to best-mean config"). The reference
// throughput is computed once per kernel and memoized (it depends only on
// the kernel; the reference config is a package constant).
func NormalizedPerf(cfg *arch.NodeConfig, k workload.Kernel) float64 {
	key := keyOf(k)
	refPerf.mu.Lock()
	ref, ok := refPerf.m[key]
	refPerf.mu.Unlock()
	if !ok {
		// Simulate outside the lock; a racing duplicate computes the same
		// value, so last-write-wins is harmless.
		ref = Simulate(arch.BestMeanEHP(), k, Options{}).Perf.TFLOPs
		refPerf.mu.Lock()
		if refPerf.m == nil {
			refPerf.m = make(map[kernelKey]float64)
		}
		refPerf.m[key] = ref
		refPerf.mu.Unlock()
	}
	got := Simulate(cfg, k, Options{})
	if ref == 0 {
		return 0
	}
	return got.Perf.TFLOPs / ref
}

// SystemProjection is the §V-F machine-level roll-up (Fig. 14).
type SystemProjection struct {
	Nodes      int
	NodeTFLOPs float64
	NodeW      float64
	ExaFLOPs   float64
	SystemMW   float64
}

// ProjectSystem scales one node's result to the full machine.
func ProjectSystem(r Result, nodes int) SystemProjection {
	if nodes <= 0 {
		nodes = arch.NodeCount
	}
	return SystemProjection{
		Nodes:      nodes,
		NodeTFLOPs: r.Perf.TFLOPs,
		NodeW:      r.NodeW,
		ExaFLOPs:   r.Perf.TFLOPs * float64(nodes) / 1e6,
		SystemMW:   r.NodeW * float64(nodes) / 1e6,
	}
}

// String summarizes a result for logs and CLI output.
func (r Result) String() string {
	return fmt.Sprintf("%s on %s: %.2f TFLOP/s (%s-bound), %.1f W node, %.1f GF/W",
		r.Kernel.Name, r.Config, r.Perf.TFLOPs, r.Perf.Bound, r.NodeW, r.GFperW)
}

// AppResult is a whole-application outcome: the time-weighted aggregate over
// the app's kernel phases (§IV footnote 3 — the paper reports only the
// dominant kernel; this accounts for all of them).
type AppResult struct {
	App        workload.Application
	Config     *arch.NodeConfig
	TFLOPs     float64 // harmonic (time-weighted) application throughput
	NodeW      float64 // time-weighted mean node power
	GFperW     float64
	PerKernel  []Result
	DomKernelR Result // the dominant kernel alone, for comparison
}

// SimulateApp runs every phase of an application and aggregates: for phase
// weights w_i (flops shares) and phase throughputs p_i, application
// throughput is 1 / sum(w_i / p_i); power averages over time spent.
func SimulateApp(cfg *arch.NodeConfig, app workload.Application, opt Options) (AppResult, error) {
	if err := app.Validate(); err != nil {
		return AppResult{}, err
	}
	out := AppResult{App: app, Config: cfg}
	var timePerFlop, energyPerFlop float64
	for _, ph := range app.Phases {
		r := Simulate(cfg, ph.Kernel, opt)
		out.PerKernel = append(out.PerKernel, r)
		t := ph.Weight / (r.Perf.TFLOPs * 1e12) // seconds per app-flop in this phase
		timePerFlop += t
		energyPerFlop += t * r.NodeW
	}
	out.TFLOPs = 1 / timePerFlop / 1e12
	out.NodeW = energyPerFlop / timePerFlop
	if out.NodeW > 0 {
		out.GFperW = out.TFLOPs * 1000 / out.NodeW
	}
	out.DomKernelR = Simulate(cfg, app.Dominant(), opt)
	return out, nil
}
