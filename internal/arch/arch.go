// Package arch describes the Exascale Node Architecture (ENA) hardware: the
// Exascale Heterogeneous Processor (EHP) — GPU and CPU chiplets stacked on
// active interposers with per-GPU-chiplet 3D DRAM — plus the external memory
// network of DRAM/NVM module chains (paper §II).
//
// A NodeConfig is a complete, validated description of one compute node. All
// higher layers (performance, power, NoC, memory, thermal, DSE) consume it.
package arch

import (
	"errors"
	"fmt"
)

// Architectural constants fixed by the paper's EHP description (§II-A).
const (
	// DPFlopsPerCUPerCycle is the double-precision throughput of one GPU
	// compute unit per cycle: 32 CUs per chiplet deliver 2 TFLOP/s at
	// ~1 GHz, i.e. 64 DP flops per CU per cycle.
	DPFlopsPerCUPerCycle = 64

	// GPUChipletCount and CPUChipletCount are the EHP's chiplet counts:
	// four GPU clusters of two chiplets, two CPU clusters of four.
	GPUChipletCount = 8
	CPUChipletCount = 8

	// CoresPerCPUChiplet gives the 32-core total the paper provisions.
	CoresPerCPUChiplet = 4

	// MaxCUsPerNode is the package area budget (Table II explores up to
	// 384 CUs per node, i.e. up to 48 CUs per GPU chiplet).
	MaxCUsPerNode = 384

	// MaxGPUFreqMHz bounds the GPU clock a design point or request may ask
	// for. The V-f line (power.VoltageAt) is calibrated over 0.7-1.5 GHz
	// and reaches 1.75 V at 4 GHz, past any supply the process could
	// sustain, so no clock above it is a design point. CU dynamic power
	// grows with V²f: without a finite bound a clock like 1e300 MHz
	// evaluates to +Inf watts, which no JSON response can carry.
	MaxGPUFreqMHz = 4000

	// MinGPUFreqMHz is the slowest GPU clock a design point or request may
	// ask for. Below it a node's throughput underflows toward zero, and
	// with it the serving scenario's batch service times go to +Inf.
	MinGPUFreqMHz = 1

	// MaxInPackageBWTBps bounds the aggregate in-package DRAM bandwidth a
	// design point or request may ask for: 8 TB/s per stack on eight
	// stacks, over 20x the 3 TB/s design and 8x the largest value any
	// experiment sweeps. HBM static and traffic power grow linearly with
	// it, so, as with the clock, only a finite bound keeps every watt
	// figure finite.
	MaxInPackageBWTBps = 64

	// MinInPackageBWTBps is the smallest aggregate in-package bandwidth a
	// design point or request may ask for: 1 GB/s, three orders of
	// magnitude below any 3D DRAM stack. The detailed memory model serves
	// each access in time inversely proportional to it, so a value like
	// 1e-300 TB/s sums access latencies to +Inf.
	MinInPackageBWTBps = 1e-3

	// ProvisionedCUs is the CU count of the physically built EHP (eight
	// chiplets of 40 CUs). The static machine configuration — and hence
	// the best-mean selection of §V — is bounded by it; only the §VI
	// dynamic-reconfiguration study (Table II) considers per-kernel
	// configurations up to the full MaxCUsPerNode area budget.
	ProvisionedCUs = 320

	// HBMStacksPerNode: one 3D DRAM stack per GPU chiplet.
	HBMStacksPerNode = GPUChipletCount

	// HBMStackCapacityGB is the projected exascale-timeframe capacity per
	// stack (two generations beyond HBM2: 8 GB -> 16 -> 32 GB).
	HBMStackCapacityGB = 32

	// ExtInterfaces is the number of external-memory interfaces on the EHP.
	ExtInterfaces = 8

	// NodeCount is the envisioned machine size (§I: ~100,000 nodes).
	NodeCount = 100_000

	// NodePowerBudgetW is the per-node budget used during design-space
	// exploration (§V: 160 W, leaving headroom for cooling/network within
	// the 200 W node envelope and the 20 MW system target).
	NodePowerBudgetW = 160

	// NVMCapacityFactor: per-module NVM capacity is 4x a DRAM module's
	// (§V-C footnote 6).
	NVMCapacityFactor = 4
)

// MemKind distinguishes external-memory module technologies.
type MemKind int

const (
	// DRAMModule is a 3D-stacked DRAM external module (HMC-like).
	DRAMModule MemKind = iota
	// NVMModule is a non-volatile module: 4x density, negligible static
	// power, higher (especially write) dynamic energy.
	NVMModule
)

// String implements fmt.Stringer.
func (k MemKind) String() string {
	switch k {
	case DRAMModule:
		return "DRAM"
	case NVMModule:
		return "NVM"
	default:
		return fmt.Sprintf("MemKind(%d)", int(k))
	}
}

// GPUChiplet is one GPU die: compute units plus a slice of the LLC.
type GPUChiplet struct {
	CUs     int     // compute units on this chiplet
	FreqMHz float64 // CU clock
}

// PeakTFLOPs returns the chiplet's peak double-precision throughput.
func (g GPUChiplet) PeakTFLOPs() float64 {
	return float64(g.CUs) * g.FreqMHz * 1e6 * DPFlopsPerCUPerCycle / 1e12
}

// CPUChiplet is one CPU die: latency-optimized cores for serial and
// irregular code sections.
type CPUChiplet struct {
	Cores   int
	FreqMHz float64
	SMT     int // hardware threads per core (1 = no SMT)
}

// HBMStack is one in-package 3D DRAM stack, placed directly on top of a GPU
// chiplet (§II-B1).
type HBMStack struct {
	CapacityGB    float64
	BandwidthGBps float64 // peak per-stack bandwidth
	Channels      int     // independent channels for the queuing model
}

// ExtModule is one device in an external-memory chain.
type ExtModule struct {
	Kind       MemKind
	CapacityGB float64
}

// ExtChain is the point-to-point chain of modules hanging off one external
// interface (§II-B2; a simple chain topology, as in Fig. 3).
type ExtChain struct {
	Modules       []ExtModule
	LinkGBps      float64 // SerDes link bandwidth per direction
	LinkLatencyNs float64 // per-hop serialization + propagation latency
}

// CapacityGB sums the chain's module capacities.
func (c ExtChain) CapacityGB() float64 {
	s := 0.0
	for _, m := range c.Modules {
		s += m.CapacityGB
	}
	return s
}

// NodeConfig fully describes one ENA node.
type NodeConfig struct {
	Name string

	GPU []GPUChiplet
	CPU []CPUChiplet
	HBM []HBMStack // parallel to GPU: HBM[i] sits on GPU[i]
	Ext []ExtChain // one per external interface

	// Monolithic marks a hypothetical single-die EHP used as the chiplet
	// overhead baseline in Fig. 7 (no TSV/interposer hops).
	Monolithic bool
}

// TotalCUs returns the node's GPU compute-unit count.
func (n *NodeConfig) TotalCUs() int {
	t := 0
	for _, g := range n.GPU {
		t += g.CUs
	}
	return t
}

// GPUFreqMHz returns the (common) GPU clock. The EHP clocks all GPU chiplets
// together; Validate enforces uniformity.
func (n *NodeConfig) GPUFreqMHz() float64 {
	if len(n.GPU) == 0 {
		return 0
	}
	return n.GPU[0].FreqMHz
}

// PeakTFLOPs returns the node's peak double-precision GPU throughput.
func (n *NodeConfig) PeakTFLOPs() float64 {
	t := 0.0
	for _, g := range n.GPU {
		t += g.PeakTFLOPs()
	}
	return t
}

// InPackageBWTBps returns aggregate in-package 3D DRAM bandwidth.
func (n *NodeConfig) InPackageBWTBps() float64 {
	s := 0.0
	for _, h := range n.HBM {
		s += h.BandwidthGBps
	}
	return s / 1000
}

// InPackageCapacityGB returns aggregate in-package DRAM capacity.
func (n *NodeConfig) InPackageCapacityGB() float64 {
	s := 0.0
	for _, h := range n.HBM {
		s += h.CapacityGB
	}
	return s
}

// ExtCapacityGB returns aggregate external-memory capacity.
func (n *NodeConfig) ExtCapacityGB() float64 {
	s := 0.0
	for _, c := range n.Ext {
		s += c.CapacityGB()
	}
	return s
}

// ExtBWTBps returns the aggregate external-interface bandwidth (the
// first-hop SerDes links bound what the EHP can pull from the network).
func (n *NodeConfig) ExtBWTBps() float64 {
	s := 0.0
	for _, c := range n.Ext {
		s += c.LinkGBps
	}
	return s / 1000
}

// TotalCapacityGB returns in-package plus external capacity.
func (n *NodeConfig) TotalCapacityGB() float64 {
	return n.InPackageCapacityGB() + n.ExtCapacityGB()
}

// CPUCores returns the node's CPU core count.
func (n *NodeConfig) CPUCores() int {
	t := 0
	for _, c := range n.CPU {
		t += c.Cores
	}
	return t
}

// SerDesLinkCount returns the total number of active SerDes link hops in the
// external network (each module in a chain adds one hop). Static SerDes power
// scales with this count, which is how the hybrid NVM configuration saves
// background power (fewer, denser modules => fewer links).
func (n *NodeConfig) SerDesLinkCount() int {
	t := 0
	for _, c := range n.Ext {
		t += len(c.Modules)
	}
	return t
}

// OpsPerByte is the machine balance metric used for the x-axis of Figs. 4-6:
// (CU count x GPU frequency) / memory bandwidth. With 320 CUs at 1 GHz and
// 3 TB/s this is ~0.107, matching the paper's 0-0.35 axis range.
func (n *NodeConfig) OpsPerByte() float64 {
	bw := n.InPackageBWTBps() * 1e12
	if bw == 0 {
		return 0
	}
	return float64(n.TotalCUs()) * n.GPUFreqMHz() * 1e6 / bw
}

// Validation errors.
var (
	ErrNoGPU          = errors.New("arch: node has no GPU chiplets")
	ErrAreaBudget     = fmt.Errorf("arch: CU count exceeds the %d-CU package area budget", MaxCUsPerNode)
	ErrHBMMismatch    = errors.New("arch: HBM stack count must equal GPU chiplet count")
	ErrNonUniformFreq = errors.New("arch: GPU chiplets must share one clock")
	ErrBadFreq        = errors.New("arch: GPU frequency must be positive")
	ErrBadBandwidth   = errors.New("arch: HBM stack bandwidth must be positive")
)

// Validate checks structural invariants. A nil error means every model layer
// can consume the config safely.
func (n *NodeConfig) Validate() error {
	if len(n.GPU) == 0 {
		return ErrNoGPU
	}
	if n.TotalCUs() > MaxCUsPerNode {
		return ErrAreaBudget
	}
	if len(n.HBM) != len(n.GPU) {
		return ErrHBMMismatch
	}
	f := n.GPU[0].FreqMHz
	if f <= 0 {
		return ErrBadFreq
	}
	for _, g := range n.GPU {
		if g.FreqMHz != f {
			return ErrNonUniformFreq
		}
		if g.CUs <= 0 {
			return fmt.Errorf("arch: chiplet with %d CUs", g.CUs)
		}
	}
	for i, h := range n.HBM {
		if h.BandwidthGBps <= 0 {
			return fmt.Errorf("%w (stack %d)", ErrBadBandwidth, i)
		}
		if h.Channels <= 0 {
			return fmt.Errorf("arch: HBM stack %d has no channels", i)
		}
		if h.CapacityGB <= 0 {
			return fmt.Errorf("arch: HBM stack %d has no capacity", i)
		}
	}
	for i, c := range n.Ext {
		if len(c.Modules) > 0 && c.LinkGBps <= 0 {
			return fmt.Errorf("arch: external chain %d has modules but no link bandwidth", i)
		}
		for j, m := range c.Modules {
			if m.CapacityGB <= 0 {
				return fmt.Errorf("arch: external module %d.%d has no capacity", i, j)
			}
		}
	}
	return nil
}

// String summarizes the configuration the way the paper labels design points:
// "CUs / MHz / TB/s".
func (n *NodeConfig) String() string {
	return fmt.Sprintf("%d CUs / %.0f MHz / %.0f TB/s", n.TotalCUs(), n.GPUFreqMHz(), n.InPackageBWTBps())
}
