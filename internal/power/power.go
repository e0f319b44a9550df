// Package power implements the ENA component power model (paper §III, §V-C,
// §V-F): CU dynamic/static power with a voltage-frequency curve, CPU
// chiplets, the interposer NoC (distance-based energy), in-package 3D DRAM,
// and the external-memory network (DRAM/NVM module dynamic+static power and
// SerDes link power). The coefficients are calibrated to the paper's
// anchors: ~111 W compute-focused node power for MaxFlops at 320 CUs/1 GHz
// (Fig. 14), 27 W external-DRAM + 10 W SerDes background power (§V-C
// Finding 1), and 40-70 W total external power across kernels.
package power

import (
	"ena/internal/arch"
	"ena/internal/units"
)

// Voltage-frequency curve (nominal process corner).
const (
	// VFloor is the minimum stable supply for conventional DVFS; going
	// further down needs the variability-tolerant near-threshold circuits
	// of §V-E (internal/powopt).
	VFloor = 0.62
	// vBase + vSlope*(f/1GHz) gives the supply voltage above the floor:
	// 0.85 V at 1 GHz rising to 1.00 V at 1.5 GHz.
	vBase  = 0.55
	vSlope = 0.30
	// vRef is the voltage at the 1 GHz calibration point.
	vRef = 0.85
)

// VoltageAt returns the nominal supply voltage for a GPU frequency.
func VoltageAt(fMHz float64) float64 {
	v := vBase + vSlope*(fMHz/1000)
	if v < VFloor {
		v = VFloor
	}
	return v
}

// Model coefficients (see DESIGN.md "Calibration anchors").
const (
	// CUSwitchedCapF: effective switched capacitance per CU. At 1 GHz and
	// 0.85 V with activity 1.0 a CU burns 0.247 W, so 320 CUs running
	// MaxFlops draw ~77 W of CU dynamic power.
	CUSwitchedCapF = 0.335e-9

	// CULeakageWAtVRef: per-CU leakage at the 1 GHz voltage point.
	CULeakageWAtVRef = 0.032

	// CPU chiplet coefficients (32 cores total in the default EHP).
	CPUStaticWPerCore  = 0.22
	CPUDynamicWPerCore = 0.50

	// NoC energy: every DRAM-bound byte crosses the local chiplet slice;
	// remote bytes additionally traverse TSVs and interposer links.
	NoCLocalPJPerBit  = 0.15
	NoCRemotePJPerBit = 0.90
	NoCStaticW        = 2.5

	// In-package 3D DRAM.
	HBMDynPJPerBit     = 0.7 // exascale-projected stacked interface; 5.6 W per TB/s
	HBMStaticWPerStack = 0.5 // refresh + periphery per stack
	HBMStaticWPerTBps  = 3.5 // I/O and bank provisioning per TB/s
	// External DRAM modules: 27 W background across the default 32
	// modules (paper anchor).
	ExtDRAMStaticWPerModule = 27.0 / 32
	ExtDRAMDynWPerTBps      = 45 // ~5.6 pJ/bit (exascale-target interfaces)

	// NVM modules: negligible standby power, expensive accesses —
	// especially writes (§V-C, §VI).
	ExtNVMStaticWPerModule = 0.05
	ExtNVMReadWPerTBps     = 180
	ExtNVMWriteWPerTBps    = 700

	// SerDes links: 10 W background across 32 links (paper anchor);
	// dynamic energy per traversed hop.
	SerDesStaticWPerLink = 10.0 / 32
	SerDesDynPJPerBitHop = 1.2

	// OtherStaticW covers system management, external I/O interfaces and
	// on-package power-delivery losses.
	OtherStaticW = 4.5

	// LeakageTempCoeffPerC scales leakage with temperature around the
	// 60 C reference (coupled with internal/thermal when iterating).
	LeakageTempCoeffPerC = 0.008
	LeakageRefTempC      = 60
	// MinTempC and MaxTempC bound a requested die temperature (0 still
	// means the reference); below -65 C the leakage scale turns negative.
	MinTempC = -40
	MaxTempC = 150
)

// Breakdown is the per-component node power in Watts. Fields are grouped the
// way Fig. 9 groups them: external memory and SerDes split static/dynamic,
// CUs dynamic, everything else aggregable as "Other".
type Breakdown struct {
	CUDynamic float64
	CUStatic  float64
	CPU       float64

	NoCDynamic float64
	NoCStatic  float64

	HBMDynamic float64
	HBMStatic  float64

	ExtDynamic float64
	ExtStatic  float64

	SerDesDynamic float64
	SerDesStatic  float64

	Other float64
}

// Total returns node power.
func (b Breakdown) Total() float64 {
	return b.PackageW() + b.ExternalW()
}

// PackageW returns EHP package power (what the thermal model dissipates and
// what the DSE budget primarily constrains).
func (b Breakdown) PackageW() float64 {
	return b.CUDynamic + b.CUStatic + b.CPU +
		b.NoCDynamic + b.NoCStatic +
		b.HBMDynamic + b.HBMStatic + b.Other
}

// ExternalW returns the external-memory network power (modules + SerDes).
func (b Breakdown) ExternalW() float64 {
	return b.ExtDynamic + b.ExtStatic + b.SerDesDynamic + b.SerDesStatic
}

// OtherW groups every component Fig. 9 folds into its 'Other' bar: package
// power minus CU dynamic power.
func (b Breakdown) OtherW() float64 { return b.PackageW() - b.CUDynamic }

// Demand describes what a running kernel asks of the node; build one with
// DemandFor.
type Demand struct {
	Activity       float64 // CU switching activity
	BusyFrac       float64 // fraction of CUs doing useful work (1 = all)
	TrafficTBps    float64 // total DRAM traffic
	ExtTrafficTBps float64 // portion of traffic served by external memory
	ExtWriteFrac   float64 // write fraction of external traffic
	RemoteFrac     float64 // fraction of traffic crossing chiplets
	CPUActivity    float64 // CPU core activity (serial sections, OS)
	TempC          float64 // die temperature for leakage (0 => reference)
}

// Compute evaluates the component power model for a configuration under a
// demand.
func Compute(cfg *arch.NodeConfig, d Demand) Breakdown {
	var b Breakdown
	fMHz := cfg.GPUFreqMHz()
	v := VoltageAt(fMHz)
	cus := float64(cfg.TotalCUs())

	temp := d.TempC
	if temp == 0 {
		temp = LeakageRefTempC
	}
	leakScale := (v / vRef) * (1 + LeakageTempCoeffPerC*(temp-LeakageRefTempC))

	busy := d.BusyFrac
	if busy == 0 {
		busy = 1
	}

	b.CUDynamic = cus * busy * d.Activity * CUSwitchedCapF * v * v * fMHz * units.MHz
	b.CUStatic = cus * CULeakageWAtVRef * leakScale

	cores := float64(cfg.CPUCores())
	b.CPU = cores*CPUStaticWPerCore + cores*CPUDynamicWPerCore*d.CPUActivity

	bits := d.TrafficTBps * units.TB * 8
	b.NoCDynamic = bits * (NoCLocalPJPerBit + d.RemoteFrac*NoCRemotePJPerBit) * units.PJ
	b.NoCStatic = NoCStaticW

	b.HBMDynamic = (d.TrafficTBps - d.ExtTrafficTBps) * units.TB * 8 * HBMDynPJPerBit * units.PJ
	if b.HBMDynamic < 0 {
		b.HBMDynamic = 0
	}
	b.HBMStatic = float64(len(cfg.HBM))*HBMStaticWPerStack + cfg.InPackageBWTBps()*HBMStaticWPerTBps

	b.Other = OtherStaticW

	// External network.
	nvmFrac := cfg.NVMFractionDynamic()
	dramTraffic := d.ExtTrafficTBps * (1 - nvmFrac)
	nvmTraffic := d.ExtTrafficTBps * nvmFrac
	b.ExtDynamic = dramTraffic*ExtDRAMDynWPerTBps +
		nvmTraffic*(1-d.ExtWriteFrac)*ExtNVMReadWPerTBps +
		nvmTraffic*d.ExtWriteFrac*ExtNVMWriteWPerTBps
	b.ExtStatic = float64(cfg.ExtDRAMModuleCount()) * ExtDRAMStaticWPerModule
	for _, c := range cfg.Ext {
		for _, m := range c.Modules {
			if m.Kind == arch.NVMModule {
				b.ExtStatic += ExtNVMStaticWPerModule
			}
		}
	}
	b.SerDesStatic = float64(cfg.SerDesLinkCount()) * SerDesStaticWPerLink
	b.SerDesDynamic = d.ExtTrafficTBps * units.TB * 8 * avgChainHops(cfg) * SerDesDynPJPerBitHop * units.PJ
	return b
}

// avgChainHops is the mean number of SerDes hops an external access
// traverses, weighting each module by its capacity share (the interleaving
// spreads traffic in proportion to capacity).
func avgChainHops(cfg *arch.NodeConfig) float64 {
	var hops, capTot float64
	for _, c := range cfg.Ext {
		for j, m := range c.Modules {
			hops += float64(j+1) * m.CapacityGB
			capTot += m.CapacityGB
		}
	}
	if capTot == 0 {
		return 0
	}
	return hops / capTot
}
