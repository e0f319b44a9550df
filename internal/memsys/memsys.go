// Package memsys models the ENA's two-level memory system (paper §II-B):
// in-package 3D DRAM plus the external memory network, the management
// policies that decide which level serves each request (§II-B3), and the
// resulting memory environment (effective bandwidth and latency) the
// performance model consumes, plus the epoch-based page-migration replay
// that checks MissFrac. Loaded HBM timing lives in one place, the NoC's
// event-driven simulation (internal/noc).
package memsys

import (
	"fmt"

	"ena/internal/arch"
	"ena/internal/perf"
	"ena/internal/workload"
)

// Env builds the memory environment for a kernel when missFrac of its DRAM
// traffic is served by external memory (Fig. 8 "artificially varies the
// fraction of requests serviced by the in-package DRAM").
//
// Bandwidth blends harmonically — a stream alternating between levels is
// limited by time per byte, which adds: B_eff = 1/((1-m)/B_in + m/B_ext).
// Latency blends linearly by request fraction.
func Env(cfg *arch.NodeConfig, k workload.Kernel, missFrac float64) perf.MemEnv {
	m := missFrac
	if m < 0 {
		m = 0
	}
	if m > 1 {
		m = 1
	}
	bIn := cfg.InPackageBWTBps()
	bExt := cfg.ExtBWTBps()
	var bEff float64
	switch {
	case bExt <= 0 && m > 0:
		bEff = 0
	case m == 0:
		bEff = bIn
	default:
		bEff = 1 / ((1-m)/bIn + m/bExt)
	}
	latIn := perf.HBMLatencyNs + remoteLatencyNs(cfg, k)
	lat := (1-m)*latIn + m*extLatencyNs(cfg)
	// The contention term keys on the in-package compute-per-bandwidth
	// balance: external misses throttle request injection rather than
	// adding on-package thrash, so the machine ops-per-byte stays the
	// configuration's own.
	return perf.MemEnv{BWTBps: bEff, LatencyNs: lat, EffOpsPerByte: cfg.OpsPerByte()}
}

// remoteLatencyNs mirrors perf's chiplet-hop adder (kept here so the memory
// environment is self-contained).
func remoteLatencyNs(cfg *arch.NodeConfig, k workload.Kernel) float64 {
	if cfg.Monolithic {
		return 0
	}
	remote := (1 - k.CacheLocality) * float64(arch.GPUChipletCount-1) / float64(arch.GPUChipletCount)
	return remote * perf.ChipletHopNs
}

// extLatencyNs is the average external access latency including the SerDes
// chain traversal for the configured chain depth.
func extLatencyNs(cfg *arch.NodeConfig) float64 {
	base := float64(perf.ExtLatencyNs)
	// Deeper chains add hop latency beyond the first module.
	var hops, capTot float64
	for _, c := range cfg.Ext {
		for j, mod := range c.Modules {
			hops += float64(j) * mod.CapacityGB * c.LinkLatencyNs
			capTot += mod.CapacityGB
		}
	}
	if capTot > 0 {
		base += hops / capTot
	}
	return base
}

// Policy selects how the two memory levels are managed (§II-B3).
type Policy int

const (
	// StaticInterleave spreads pages across levels in proportion to
	// capacity with no migration: the simplest (and worst) option.
	StaticInterleave Policy = iota
	// SoftwareManaged is the paper's primary mode: the OS monitors and
	// migrates hot pages so the in-package DRAM captures the hottest
	// fraction of traffic (the HMA approach of [27]).
	SoftwareManaged
	// HardwareCache treats in-package DRAM as a hardware-managed cache:
	// better hit rates for friendly workloads, but it sacrifices 20% of
	// total addressable capacity (256 GB of 1.25 TB) (§II-B3).
	HardwareCache
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case StaticInterleave:
		return "static-interleave"
	case SoftwareManaged:
		return "software-managed"
	case HardwareCache:
		return "hardware-cache"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// MissFrac estimates the fraction of DRAM traffic served by external memory
// for a kernel under a policy on a node. The model keys on the ratio of the
// kernel's footprint to in-package capacity and on how skewed the kernel's
// page-touch distribution is (hot-page concentration makes migration
// effective).
func MissFrac(cfg *arch.NodeConfig, k workload.Kernel, p Policy) float64 {
	inCap := cfg.InPackageCapacityGB()
	foot := k.FootprintGB
	if foot <= inCap || foot == 0 {
		return 0
	}
	coldShare := 1 - inCap/foot // capacity-proportional miss fraction
	switch p {
	case StaticInterleave:
		return coldShare
	case SoftwareManaged:
		// Migration captures the hot pages; the achievable traffic
		// fraction is the kernel's characterized external share (the
		// paper's 46-89%). Even for flat access distributions the
		// monitor still beats raw capacity interleaving slightly (hot
		// metadata/tally pages concentrate in-package).
		m := k.ExtTrafficFrac
		if cap := coldShare * 0.92; m > cap {
			m = cap
		}
		return m
	case HardwareCache:
		// A hardware cache reacts faster than epoch-based migration:
		// model it as capturing reuse at line granularity, improving
		// on software management by the kernel's cache friendliness,
		// at the cost of higher miss rates for streaming/random
		// kernels whose reuse exceeds capacity anyway.
		m := k.ExtTrafficFrac * (1 - 0.3*k.CacheLocality)
		if m > coldShare {
			m = coldShare
		}
		return m
	default:
		return coldShare
	}
}

// UsableCapacityGB returns addressable memory under a policy: the hardware
// cache mode sacrifices the in-package capacity as addressable space.
func UsableCapacityGB(cfg *arch.NodeConfig, p Policy) float64 {
	if p == HardwareCache {
		return cfg.ExtCapacityGB()
	}
	return cfg.TotalCapacityGB()
}

// FitsProblem reports whether a kernel's footprint is addressable under the
// policy (the §II-B3 argument for not defaulting to cache mode).
func FitsProblem(cfg *arch.NodeConfig, k workload.Kernel, p Policy) bool {
	return k.FootprintGB <= UsableCapacityGB(cfg, p)
}

// MigrationOverheadFrac estimates the performance tax of a policy's
// management traffic (page migrations or cache fills) as a fraction of
// useful traffic. Software management pays per-epoch migration bursts;
// hardware caching pays fill traffic on every miss.
func MigrationOverheadFrac(k workload.Kernel, p Policy) float64 {
	switch p {
	case SoftwareManaged:
		// Hot sets churn faster for irregular kernels.
		return 0.01 + 0.02*(1-k.CacheLocality)
	case HardwareCache:
		return 0.04
	default:
		return 0
	}
}

// EnvUnderPolicy composes MissFrac and Env, applying the policy's overhead
// as a bandwidth tax.
func EnvUnderPolicy(cfg *arch.NodeConfig, k workload.Kernel, p Policy) perf.MemEnv {
	m := MissFrac(cfg, k, p)
	env := Env(cfg, k, m)
	env.BWTBps *= 1 - MigrationOverheadFrac(k, p)
	return env
}

// DegradationAtMiss returns normalized performance (perf at missFrac divided
// by perf at zero misses), the quantity Fig. 8 plots.
func DegradationAtMiss(cfg *arch.NodeConfig, k workload.Kernel, missFrac float64) float64 {
	base := perf.Estimate(cfg, k, Env(cfg, k, 0))
	got := perf.Estimate(cfg, k, Env(cfg, k, missFrac))
	if base.TFLOPs == 0 {
		return 0
	}
	return got.TFLOPs / base.TFLOPs
}
