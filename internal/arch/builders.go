package arch

import "fmt"

// External-memory defaults used by the builders. The exascale target is
// >= 1 TB of per-node capacity (§II-B2): 256 GB in-package + 1 TB external.
const (
	// DefaultExtModuleGB is a DRAM module's capacity (HMC-like device).
	DefaultExtModuleGB = 32
	// DefaultModulesPerChain x ExtInterfaces x DefaultExtModuleGB = 1 TB.
	DefaultModulesPerChain = 4
	// MaxModulesPerChain bounds the external-chain depth a design point may
	// ask for: four times the default chain, 4 TB of external DRAM per node.
	// Every module is one more SerDes hop of latency and background power on
	// its chain, so deeper chains only lose; and ExternalNetwork allocates
	// ExtInterfaces x depth modules, so an unbounded depth lets one request
	// ask a replica for more memory than it has.
	MaxModulesPerChain = 16
	// DefaultExtLinkGBps is the per-interface SerDes bandwidth. Eight
	// interfaces give 0.8 TB/s aggregate — an order of magnitude below
	// in-package bandwidth, which is what makes in-package misses costly
	// (Fig. 8).
	DefaultExtLinkGBps = 100
	// DefaultExtLinkLatencyNs per SerDes hop.
	DefaultExtLinkLatencyNs = 40
	// DefaultHBMChannelsPerStack for the detailed queuing model.
	DefaultHBMChannelsPerStack = 16
)

// BestMeanCUs/Freq/BW is the configuration the paper's exploration of over a
// thousand design points selects as best on average (§V): 320 CUs at 1 GHz
// with 3 TB/s, under the 160 W node budget.
const (
	BestMeanCUs     = 320
	BestMeanFreqMHz = 1000
	BestMeanBWTBps  = 3
)

// OptimizedBestMeanCUs/Freq/BW is the best-mean configuration once the §V-E
// power optimizations free up budget (Fig. 13): 288 CUs at 1100 MHz, 3 TB/s.
const (
	OptimizedBestMeanCUs     = 288
	OptimizedBestMeanFreqMHz = 1100
	OptimizedBestMeanBWTBps  = 3
)

// EHP builds an EHP-style node with the given total CU count, GPU clock and
// aggregate in-package bandwidth, distributing CUs and bandwidth evenly over
// the 8 GPU chiplets and attaching the default 1 TB external DRAM network.
//
// CU counts that do not divide evenly are spread so chiplet loads differ by
// at most one CU (the DSE sweeps arbitrary totals).
func EHP(totalCUs int, freqMHz, bwTBps float64) *NodeConfig {
	n := &NodeConfig{
		Name: fmt.Sprintf("EHP-%d/%0.f/%0.f", totalCUs, freqMHz, bwTBps),
	}
	base := totalCUs / GPUChipletCount
	rem := totalCUs % GPUChipletCount
	perStackGBps := bwTBps * 1000 / HBMStacksPerNode
	for i := 0; i < GPUChipletCount; i++ {
		cus := base
		if i < rem {
			cus++
		}
		n.GPU = append(n.GPU, GPUChiplet{CUs: cus, FreqMHz: freqMHz})
		n.HBM = append(n.HBM, HBMStack{
			CapacityGB:    HBMStackCapacityGB,
			BandwidthGBps: perStackGBps,
			Channels:      DefaultHBMChannelsPerStack,
		})
	}
	for i := 0; i < CPUChipletCount; i++ {
		n.CPU = append(n.CPU, CPUChiplet{Cores: CoresPerCPUChiplet, FreqMHz: 2500, SMT: 2})
	}
	n.Ext = DefaultExternalNetwork()
	return n
}

// EHPVariant builds an EHP-style node with explicit packaging parameters on
// top of the classic CU/frequency/bandwidth triple: the GPU chiplet count
// (with one HBM stack per chiplet, per the floorplan invariant), the per-stack
// HBM capacity, and the external-chain depth (modules per chain). Zero or
// negative values select the paper defaults, and with all three at their
// defaults the node is identical to EHP's except for its name. CUs and
// aggregate bandwidth are spread evenly over the chiplets exactly as EHP
// spreads them over eight.
func EHPVariant(totalCUs int, freqMHz, bwTBps float64, gpuChiplets int, stackGB float64, modulesPerChain int) *NodeConfig {
	if gpuChiplets <= 0 {
		gpuChiplets = GPUChipletCount
	}
	if stackGB <= 0 {
		stackGB = HBMStackCapacityGB
	}
	if modulesPerChain <= 0 {
		modulesPerChain = DefaultModulesPerChain
	}
	n := &NodeConfig{
		Name: fmt.Sprintf("EHP-%d/%0.f/%0.f-g%d-s%g-m%d",
			totalCUs, freqMHz, bwTBps, gpuChiplets, stackGB, modulesPerChain),
	}
	base := totalCUs / gpuChiplets
	rem := totalCUs % gpuChiplets
	perStackGBps := bwTBps * 1000 / float64(gpuChiplets)
	for i := 0; i < gpuChiplets; i++ {
		cus := base
		if i < rem {
			cus++
		}
		n.GPU = append(n.GPU, GPUChiplet{CUs: cus, FreqMHz: freqMHz})
		n.HBM = append(n.HBM, HBMStack{
			CapacityGB:    stackGB,
			BandwidthGBps: perStackGBps,
			Channels:      DefaultHBMChannelsPerStack,
		})
	}
	for i := 0; i < CPUChipletCount; i++ {
		n.CPU = append(n.CPU, CPUChiplet{Cores: CoresPerCPUChiplet, FreqMHz: 2500, SMT: 2})
	}
	n.Ext = ExternalNetwork(modulesPerChain)
	return n
}

// BestMeanEHP returns the paper's best-mean design point.
func BestMeanEHP() *NodeConfig {
	n := EHP(BestMeanCUs, BestMeanFreqMHz, BestMeanBWTBps)
	n.Name = "best-mean"
	return n
}

// OptimizedBestMeanEHP returns the best-mean design point found when the
// power optimizations of §V-E are enabled.
func OptimizedBestMeanEHP() *NodeConfig {
	n := EHP(OptimizedBestMeanCUs, OptimizedBestMeanFreqMHz, OptimizedBestMeanBWTBps)
	n.Name = "best-mean+opt"
	return n
}

// Monolithic returns the hypothetical single-die equivalent of cfg used as
// the Fig. 7 baseline: identical resources, but with intra-package traffic
// free of TSV/interposer-hop overheads.
func Monolithic(cfg *NodeConfig) *NodeConfig {
	m := cfg.Clone()
	m.Name = cfg.Name + "-monolithic"
	m.Monolithic = true
	return m
}

// DefaultExternalNetwork builds the DRAM-only external memory network:
// 8 interfaces x 4 modules x 32 GB = 1 TB.
func DefaultExternalNetwork() []ExtChain {
	return ExternalNetwork(DefaultModulesPerChain)
}

// ExternalNetwork builds a DRAM-only external memory network with an explicit
// chain depth: 8 interfaces x modulesPerChain x 32 GB. Deeper chains add
// capacity at the cost of SerDes hop latency and background power; shallower
// chains trade capacity for both.
func ExternalNetwork(modulesPerChain int) []ExtChain {
	chains := make([]ExtChain, ExtInterfaces)
	for i := range chains {
		mods := make([]ExtModule, modulesPerChain)
		for j := range mods {
			mods[j] = ExtModule{Kind: DRAMModule, CapacityGB: DefaultExtModuleGB}
		}
		chains[i] = ExtChain{
			Modules:       mods,
			LinkGBps:      DefaultExtLinkGBps,
			LinkLatencyNs: DefaultExtLinkLatencyNs,
		}
	}
	return chains
}

// HybridExternalNetwork replaces half of the external DRAM with NVM while
// holding total capacity constant (§V-C): per chain, 4x32 GB DRAM becomes
// 2x32 GB DRAM + one 64 GB NVM module (NVM density is 4x a DRAM module, so
// the replacement fits with headroom). The chain shrinks from 4 modules to
// 3, cutting SerDes hop count — and thus background power — accordingly.
func HybridExternalNetwork() []ExtChain {
	chains := make([]ExtChain, ExtInterfaces)
	for i := range chains {
		mods := []ExtModule{
			{Kind: DRAMModule, CapacityGB: DefaultExtModuleGB},
			{Kind: DRAMModule, CapacityGB: DefaultExtModuleGB},
			// One NVM module replaces two DRAM modules' capacity.
			{Kind: NVMModule, CapacityGB: 2 * DefaultExtModuleGB},
		}
		chains[i] = ExtChain{
			Modules:       mods,
			LinkGBps:      DefaultExtLinkGBps,
			LinkLatencyNs: DefaultExtLinkLatencyNs,
		}
	}
	return chains
}

// WithHybridExternal returns a copy of cfg using the hybrid DRAM+NVM
// external network.
func WithHybridExternal(cfg *NodeConfig) *NodeConfig {
	c := cfg.Clone()
	c.Name = cfg.Name + "+NVM"
	c.Ext = HybridExternalNetwork()
	return c
}

// Clone deep-copies the configuration.
func (n *NodeConfig) Clone() *NodeConfig {
	c := &NodeConfig{Name: n.Name, Monolithic: n.Monolithic}
	c.GPU = append([]GPUChiplet(nil), n.GPU...)
	c.CPU = append([]CPUChiplet(nil), n.CPU...)
	c.HBM = append([]HBMStack(nil), n.HBM...)
	c.Ext = make([]ExtChain, len(n.Ext))
	for i, ch := range n.Ext {
		cc := ch
		cc.Modules = append([]ExtModule(nil), ch.Modules...)
		c.Ext[i] = cc
	}
	return c
}

// NVMFractionDynamic returns the fraction of external capacity that is NVM;
// the address interleaving spreads traffic in proportion to capacity, so
// this is also the fraction of external accesses served by NVM.
func (n *NodeConfig) NVMFractionDynamic() float64 {
	var nvm, total float64
	for _, c := range n.Ext {
		for _, m := range c.Modules {
			total += m.CapacityGB
			if m.Kind == NVMModule {
				nvm += m.CapacityGB
			}
		}
	}
	if total == 0 {
		return 0
	}
	return nvm / total
}

// ExtDRAMModuleCount counts external DRAM modules (drives refresh/static power).
func (n *NodeConfig) ExtDRAMModuleCount() int {
	t := 0
	for _, c := range n.Ext {
		for _, m := range c.Modules {
			if m.Kind == DRAMModule {
				t++
			}
		}
	}
	return t
}

// CPUOnlyServer packages the EHP's CPU clusters as a conventional server
// processor — the §II-A2 re-usability argument ("one or more of the CPU
// clusters could be packaged together to create a conventional CPU-only
// server processor"). The part keeps the CPU chiplets and an external
// memory network but carries no GPU chiplets or in-package DRAM stacks.
// Note: such a part is not a valid ENA compute node (Validate rejects it) —
// it demonstrates silicon reuse, not exascale duty.
func CPUOnlyServer(clusters int) *NodeConfig {
	if clusters < 1 {
		clusters = 1
	}
	if clusters > 2 {
		clusters = 2
	}
	n := &NodeConfig{Name: fmt.Sprintf("CPU-server-%dc", clusters*4*CoresPerCPUChiplet)}
	for i := 0; i < clusters*4; i++ {
		n.CPU = append(n.CPU, CPUChiplet{Cores: CoresPerCPUChiplet, FreqMHz: 3200, SMT: 2})
	}
	n.Ext = DefaultExternalNetwork()[:2*clusters]
	return n
}
