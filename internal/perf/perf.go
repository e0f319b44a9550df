// Package perf implements the high-level analytic performance model of the
// paper's methodology (§III): an extended roofline that bounds a kernel's
// throughput by (1) compute capability, (2) deliverable memory bandwidth,
// and (3) memory-level-parallelism-limited latency, then applies the
// contention degradation that memory-intensive kernels exhibit when the
// machine's ops-per-byte grows past the kernel's sweet spot (§IV-C), and an
// Amdahl term for serial/CPU sections.
//
// The model's inputs are a node configuration (internal/arch), a kernel
// characterization (internal/workload), and a memory environment (effective
// bandwidth and latency, produced by internal/memsys or internal/noc). Its
// output is absolute node throughput; the experiment harnesses normalize to
// the best-mean configuration exactly as the paper's figures do.
package perf

import (
	"fmt"
	"math"

	"ena/internal/arch"
	"ena/internal/units"
	"ena/internal/workload"
)

// Model latency constants (calibration anchors; see DESIGN.md).
const (
	// CoreSideCycles is the core/cache portion of a memory access in CU
	// cycles — it shrinks with frequency, which is why high-clock design
	// points help latency-sensitive kernels (Table II).
	CoreSideCycles = 190

	// HBMLatencyNs is the loaded in-package 3D DRAM access latency.
	HBMLatencyNs = 160

	// ChipletHopNs is the extra latency of crossing to another chiplet
	// through TSVs and the active interposer (two vertical hops plus
	// horizontal traversal; §V-A). The detailed NoC model refines this.
	ChipletHopNs = 32

	// ExtLatencyNs is the loaded external-memory access latency through
	// the SerDes chain.
	ExtLatencyNs = 450

	// CPUFlopsPerCorePerCycle approximates the CPU chiplets' DP
	// throughput for serial sections (4-wide FMA). It is a calibrated
	// rate: the CPU clock is not a design axis, so no DVFS model feeds it.
	CPUFlopsPerCorePerCycle = 8
)

// softminP is the exponent of the smooth minimum that joins the roofline
// bounds; larger values sharpen the knees. 6 reproduces the gradual plateaus
// of Figs. 4-6 without blurring who wins.
const softminP = 6

// Caps on the CU-scaling benefit at low CU counts: achieved utilization
// cannot exceed maxAchievableUtil, and per-CU occupancy (outstanding
// requests) saturates at maxMLPScale times the characterized value.
const (
	maxAchievableUtil = 0.95
	maxMLPScale       = 1.5
)

// MemEnv is the memory environment a kernel sees on a node.
type MemEnv struct {
	// BWTBps is the deliverable DRAM bandwidth for this kernel's traffic
	// (in-package bandwidth, degraded by external misses if any).
	BWTBps float64
	// LatencyNs is the average memory-side (post-core) access latency.
	LatencyNs float64
	// EffOpsPerByte is the machine compute-per-bandwidth balance the
	// contention model keys on; DefaultEnv derives it from the config.
	EffOpsPerByte float64
}

// Bound identifies which roofline term dominated.
type Bound int

const (
	// ComputeBound means peak-throughput limited.
	ComputeBound Bound = iota
	// BandwidthBound means DRAM-bandwidth limited.
	BandwidthBound
	// LatencyBound means limited by outstanding-request capacity.
	LatencyBound
)

// String implements fmt.Stringer.
func (b Bound) String() string {
	switch b {
	case ComputeBound:
		return "compute"
	case BandwidthBound:
		return "bandwidth"
	case LatencyBound:
		return "latency"
	default:
		return fmt.Sprintf("Bound(%d)", int(b))
	}
}

// Result is the model's output for one (config, kernel, environment) triple.
type Result struct {
	TFLOPs      float64 // achieved node throughput
	Bound       Bound   // dominating roofline term
	TrafficTBps float64 // DRAM traffic generated at that throughput
	UtilOfPeak  float64 // TFLOPs / peak TFLOPs
	Contention  float64 // contention divisor applied (>= 1)

	// The three raw bounds, for diagnostics and tests.
	ComputeTFLOPs   float64
	BandwidthTFLOPs float64
	LatencyTFLOPs   float64
}

// DefaultEnv builds the memory environment for a kernel whose working set is
// served entirely from in-package DRAM (the assumption behind Figs. 4-7 and
// 10-13; Fig. 8 perturbs it explicitly via memsys).
func DefaultEnv(cfg *arch.NodeConfig, k workload.Kernel) MemEnv {
	return MemEnv{
		BWTBps:        cfg.InPackageBWTBps(),
		LatencyNs:     HBMLatencyNs + remoteLatencyNs(cfg, k),
		EffOpsPerByte: cfg.OpsPerByte(),
	}
}

// remoteLatencyNs is the average extra hop latency for traffic that leaves
// the source chiplet. With eight GPU chiplets and capacity-interleaved
// addressing, (1-locality) * 7/8 of post-cache traffic is remote.
func remoteLatencyNs(cfg *arch.NodeConfig, k workload.Kernel) float64 {
	if cfg.Monolithic {
		return 0
	}
	remoteFrac := (1 - k.CacheLocality) * float64(arch.GPUChipletCount-1) / float64(arch.GPUChipletCount)
	return remoteFrac * ChipletHopNs
}

// softmin joins bounds smoothly: (sum x_i^-p)^(-1/p) <= min(x_i).
func softmin(xs ...float64) float64 {
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Pow(x, -softminP)
	}
	return math.Pow(s, -1.0/softminP)
}

// Estimate evaluates the model.
func Estimate(cfg *arch.NodeConfig, k workload.Kernel, env MemEnv) Result {
	cus := float64(cfg.TotalCUs())
	fHz := cfg.GPUFreqMHz() * units.MHz
	peak := cus * fHz * arch.DPFlopsPerCUPerCycle // flops/s

	// Achieved utilization decays mildly with CU count around the 320-CU
	// reference point (fixed-problem-size scaling loss; [42], [43]):
	// frequency speeds the whole chip up, extra CUs only the parallel
	// parts that still have work. The same occupancy loss limits how many
	// outstanding memory requests the added CUs contribute, so the
	// scaling factor applies to both the compute and latency bounds.
	scaling := 1.0
	if k.CUScalingGamma > 0 {
		scaling = math.Pow(float64(arch.BestMeanCUs)/cus, k.CUScalingGamma)
	}
	util := k.MaxUtilization * scaling
	if util > maxAchievableUtil {
		util = maxAchievableUtil
	}
	compute := peak * util
	bandwidth := k.Intensity * env.BWTBps * units.TB

	// Latency bound: each CU sustains MLP outstanding 64 B requests; the
	// total request rate is capped by round-trip latency (core-side
	// cycles shrink with frequency, memory-side is env.LatencyNs).
	latNs := CoreSideCycles/(cfg.GPUFreqMHz()/1000) + env.LatencyNs
	mlpScale := scaling
	if mlpScale > maxMLPScale {
		mlpScale = maxMLPScale
	}
	bytesPerSec := cus * mlpScale * k.MLPPerCU * units.CacheLineBytes / (latNs * 1e-9)
	latency := bytesPerSec * k.Intensity

	raw := softmin(compute, bandwidth, latency)

	// Contention degradation for memory-intensive kernels (§IV-C): when
	// the machine is provisioned with far more compute per byte than the
	// kernel's sweet spot, the excess concurrent requests thrash caches
	// and the interconnect.
	cont := 1.0
	if k.ThrashSlope > 0 && env.EffOpsPerByte > k.ThrashOPB {
		cont = 1 + k.ThrashSlope*(env.EffOpsPerByte-k.ThrashOPB)/k.ThrashOPB*0.1
	}
	gpu := raw / cont

	// Amdahl term: serial sections run on the CPU chiplets.
	cpuRate := float64(cfg.CPUCores()) * cpuFreqHz(cfg) * CPUFlopsPerCorePerCycle
	eff := gpu
	if k.SerialFrac > 0 && cpuRate > 0 {
		eff = gpu / ((1 - k.SerialFrac) + k.SerialFrac*gpu/cpuRate)
	}

	r := Result{
		TFLOPs:          eff / units.TFLOPS,
		TrafficTBps:     eff / k.Intensity / units.TB,
		UtilOfPeak:      eff / peak,
		Contention:      cont,
		ComputeTFLOPs:   compute / units.TFLOPS,
		BandwidthTFLOPs: bandwidth / units.TFLOPS,
		LatencyTFLOPs:   latency / units.TFLOPS,
	}
	switch units.Min3(compute, bandwidth, latency) {
	case compute:
		r.Bound = ComputeBound
	case bandwidth:
		r.Bound = BandwidthBound
	default:
		r.Bound = LatencyBound
	}
	return r
}

func cpuFreqHz(cfg *arch.NodeConfig) float64 {
	if len(cfg.CPU) == 0 {
		return 0
	}
	return cfg.CPU[0].FreqMHz * units.MHz
}

// EstimateDefault is Estimate with the all-in-package memory environment.
func EstimateDefault(cfg *arch.NodeConfig, k workload.Kernel) Result {
	return Estimate(cfg, k, DefaultEnv(cfg, k))
}
