// Package workload models the proxy applications of the paper's Table I:
// six open-source scientific/security proxy apps plus MaxFlops, the
// peak-throughput microbenchmark. The real study measured these kernels on
// AMD hardware and fed the measurements into scaling models; we instead give
// each kernel (a) an explicit characterization — the exact quantities the
// paper's high-level simulator consumes — and (b) a synthetic memory-trace
// generator whose access pattern and data values mimic the kernel's behaviour
// so that trace-derived metrics (locality, footprint, compressibility) can be
// cross-checked against the characterization and can drive the detailed
// event-driven simulators.
package workload

import (
	"fmt"
	"math"
)

// Category classifies kernels as in §IV.
type Category int

const (
	// ComputeIntensive kernels have infrequent main-memory accesses; the
	// performance is bound by compute throughput (§IV-A).
	ComputeIntensive Category = iota
	// Balanced kernels stress both compute and memory; performance
	// plateaus beyond a kernel-specific ops-per-byte point (§IV-B).
	Balanced
	// MemoryIntensive kernels are bandwidth/latency sensitive and degrade
	// when excessive concurrency thrashes caches and the NoC (§IV-C).
	MemoryIntensive
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case ComputeIntensive:
		return "compute-intensive"
	case Balanced:
		return "balanced"
	case MemoryIntensive:
		return "memory-intensive"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Access is one element of a synthetic memory trace: a 64-byte-line address,
// a read/write flag, and the 64-bit data word written or expected (used by
// the compression study).
type Access struct {
	Addr  uint64 // byte address; models use Addr / 64 as the line
	Write bool
	Value uint64
}

// TraceGen produces n accesses of the kernel's characteristic pattern.
// Generators are deterministic for a given seed.
type TraceGen func(seed int64, n int) []Access

// Kernel is one proxy application's characterization. The fields are the
// inputs of the high-level simulator (internal/perf, internal/power):
//
//   - Intensity: application arithmetic intensity, DP flops per byte of
//     DRAM traffic after on-chip caches.
//   - MaxUtilization: achievable fraction of peak flops when compute-bound
//     (divergence, dependency stalls, launch overheads).
//   - MLPPerCU: average outstanding 64 B memory requests per CU; the
//     latency-hiding capacity (low for irregular kernels).
//   - Activity: average CU switching activity while running (scales CU
//     dynamic power).
//   - CacheLocality: fraction of post-L1 traffic captured by chiplet-local
//     caching; the remainder crosses the interposer NoC (Fig. 7).
//   - ExtTrafficFrac: fraction of DRAM traffic served by external memory
//     for exascale problem sizes under the HMA-style management of [27]
//     (the paper reports 46-89%; ~0 for MaxFlops).
//   - WriteFrac: store fraction of memory traffic (drives NVM write energy);
//     calibrated, not read from the trace (Table I prints the trace's).
//   - FootprintGB: resident data footprint for a representative rank.
//   - ThrashOPB / ThrashSlope: contention model — beyond machine
//     ops-per-byte ThrashOPB, excessive concurrent requests thrash caches
//     and the interconnect, degrading performance with the given slope
//     (zero for kernels that only plateau).
//   - SerialFrac: fraction of work in serial/CPU sections (Amdahl term).
//   - CUScalingGamma: CU-count scaling inefficiency — achieved utilization
//     scales as (320/CUs)^gamma around the 320-CU reference, reflecting the
//     sublinear CU scaling the GPU scaling models of [42], [43] measure for
//     fixed problem sizes (zero for the embarrassingly parallel MaxFlops).
type Kernel struct {
	Name        string
	Description string
	Category    Category

	Intensity      float64
	MaxUtilization float64
	MLPPerCU       float64
	Activity       float64
	CacheLocality  float64
	ExtTrafficFrac float64
	WriteFrac      float64
	FootprintGB    float64
	ThrashOPB      float64
	ThrashSlope    float64
	SerialFrac     float64
	CUScalingGamma float64

	// Compressibility is the DRAM-traffic compression ratio the
	// compression optimization applies (internal/powopt). It is a
	// calibrated input, set so Fig. 12's savings match the paper's
	// reported means; it is not measured from the kernel's trace.
	Compressibility float64

	Trace TraceGen
}

// Validate checks that the characterization is internally consistent. Every
// numeric field is also required to be finite: a NaN or Inf intensity (the
// failure mode of a zero-sized or negatively-tiled DL spec fed straight to
// the constructors) would otherwise flow through the roofline silently and
// poison every downstream figure. NaN compares false against everything, so
// the range checks alone would pass it.
func (k Kernel) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"intensity", k.Intensity},
		{"utilization", k.MaxUtilization},
		{"MLP", k.MLPPerCU},
		{"activity", k.Activity},
		{"locality", k.CacheLocality},
		{"external traffic fraction", k.ExtTrafficFrac},
		{"write fraction", k.WriteFrac},
		{"footprint", k.FootprintGB},
		{"thrash ops-per-byte", k.ThrashOPB},
		{"thrash slope", k.ThrashSlope},
		{"serial fraction", k.SerialFrac},
		{"CU scaling gamma", k.CUScalingGamma},
		{"compression ratio", k.Compressibility},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload %s: non-finite %s (%v)", k.Name, f.name, f.v)
		}
	}
	switch {
	case k.Name == "":
		return fmt.Errorf("workload: kernel without a name")
	case k.Intensity <= 0:
		return fmt.Errorf("workload %s: non-positive intensity", k.Name)
	case k.MaxUtilization <= 0 || k.MaxUtilization > 1:
		return fmt.Errorf("workload %s: utilization out of (0,1]", k.Name)
	case k.MLPPerCU <= 0:
		return fmt.Errorf("workload %s: non-positive MLP", k.Name)
	case k.Activity < 0 || k.Activity > 1:
		return fmt.Errorf("workload %s: activity out of [0,1]", k.Name)
	case k.CacheLocality < 0 || k.CacheLocality > 1:
		return fmt.Errorf("workload %s: locality out of [0,1]", k.Name)
	case k.ExtTrafficFrac < 0 || k.ExtTrafficFrac > 1:
		return fmt.Errorf("workload %s: external traffic fraction out of [0,1]", k.Name)
	case k.WriteFrac < 0 || k.WriteFrac > 1:
		return fmt.Errorf("workload %s: write fraction out of [0,1]", k.Name)
	case k.ThrashSlope < 0:
		return fmt.Errorf("workload %s: negative thrash slope", k.Name)
	case k.ThrashOPB < 0:
		return fmt.Errorf("workload %s: negative thrash ops-per-byte", k.Name)
	case k.FootprintGB < 0:
		return fmt.Errorf("workload %s: negative footprint", k.Name)
	case k.SerialFrac < 0 || k.SerialFrac > 1:
		return fmt.Errorf("workload %s: serial fraction out of [0,1]", k.Name)
	case k.CUScalingGamma < 0:
		return fmt.Errorf("workload %s: negative CU scaling gamma", k.Name)
	case k.Compressibility < 1:
		return fmt.Errorf("workload %s: compression ratio below 1", k.Name)
	case k.Trace == nil:
		return fmt.Errorf("workload %s: missing trace generator", k.Name)
	}
	return nil
}

// Suite returns the paper's eight kernels (Table I), in the order the paper
// lists them: the compute-intensive microbenchmark, the balanced proxies,
// then the memory-intensive proxies.
func Suite() []Kernel {
	return []Kernel{
		MaxFlops(),
		CoMD(),
		CoMDLJ(),
		HPGMG(),
		LULESH(),
		MiniAMR(),
		XSBench(),
		SNAP(),
	}
}

// suiteByName indexes Suite once, so that ByName does not rebuild it.
var suiteByName = func() map[string]Kernel {
	m := make(map[string]Kernel)
	for _, k := range Suite() {
		m[k.Name] = k
	}
	return m
}()

// ByName returns the kernel with the given name from Suite.
func ByName(name string) (Kernel, error) {
	if k, ok := suiteByName[name]; ok {
		return k, nil
	}
	return Kernel{}, fmt.Errorf("workload: unknown kernel %q", name)
}

// Names lists the suite's kernel names in order.
func Names() []string {
	ks := Suite()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.Name
	}
	return out
}

// MaxFlops measures maximum achievable floating-point throughput: a tiny
// working set hammered by fused multiply-adds (§IV-A, Fig. 4).
func MaxFlops() Kernel {
	return Kernel{
		Name:            "MaxFlops",
		Description:     "Measures maximum FP throughput",
		Category:        ComputeIntensive,
		Intensity:       48,
		MaxUtilization:  0.91,
		MLPPerCU:        20,
		Activity:        1.0,
		CacheLocality:   0.95,
		ExtTrafficFrac:  0.01,
		WriteFrac:       0.05,
		FootprintGB:     0.004,
		SerialFrac:      0.0001,
		Compressibility: 1.15,
		CUScalingGamma:  0,
		Trace:           maxFlopsTrace,
	}
}

// CoMD is the molecular-dynamics proxy (embedded-atom method): neighbor-list
// gathers with good but not perfect locality; balanced (§IV-B, Fig. 5).
func CoMD() Kernel {
	return Kernel{
		Name:            "CoMD",
		Description:     "Molecular-dynamics algorithms (Embedded Atom)",
		Category:        Balanced,
		Intensity:       5.5,
		MaxUtilization:  0.62,
		MLPPerCU:        64,
		Activity:        0.62,
		CacheLocality:   0.35,
		ExtTrafficFrac:  0.46,
		WriteFrac:       0.25,
		FootprintGB:     192,
		SerialFrac:      0.004,
		Compressibility: 1.20,
		CUScalingGamma:  0.50,
		Trace:           comdTrace,
	}
}

// CoMDLJ is CoMD with the cheaper Lennard-Jones potential: higher compute
// intensity per byte and higher CU activity (it approaches the thermal limit
// in Fig. 10).
func CoMDLJ() Kernel {
	return Kernel{
		Name:            "CoMD-LJ",
		Description:     "Molecular-dynamics algorithms (Lennard-Jones)",
		Category:        Balanced,
		Intensity:       7.0,
		MaxUtilization:  0.72,
		MLPPerCU:        64,
		Activity:        0.70,
		CacheLocality:   0.42,
		ExtTrafficFrac:  0.48,
		WriteFrac:       0.25,
		FootprintGB:     192,
		SerialFrac:      0.004,
		Compressibility: 1.20,
		CUScalingGamma:  0.45,
		Trace:           comdTrace,
	}
}

// HPGMG is the multigrid HPC ranking benchmark: streaming stencils over a
// level hierarchy; balanced-to-memory-bound with large footprint.
func HPGMG() Kernel {
	return Kernel{
		Name:            "HPGMG",
		Description:     "Ranks HPC systems (geometric multigrid)",
		Category:        Balanced,
		Intensity:       2.4,
		MaxUtilization:  0.33,
		MLPPerCU:        48,
		Activity:        0.46,
		CacheLocality:   0.33,
		ExtTrafficFrac:  0.70,
		WriteFrac:       0.30,
		FootprintGB:     1024,
		ThrashOPB:       0.24,
		ThrashSlope:     0.8,
		SerialFrac:      0.01,
		Compressibility: 1.25,
		CUScalingGamma:  0.15,
		Trace:           hpgmgTrace,
	}
}

// LULESH is the shock-hydrodynamics proxy: irregular gathers/scatters over an
// unstructured mesh; memory-intensive and notably latency-sensitive (§V-B).
func LULESH() Kernel {
	return Kernel{
		Name:            "LULESH",
		Description:     "Hydrodynamic simulation",
		Category:        MemoryIntensive,
		Intensity:       2.2,
		MaxUtilization:  0.50,
		MLPPerCU:        18,
		Activity:        0.50,
		CacheLocality:   0.25,
		ExtTrafficFrac:  0.65,
		WriteFrac:       0.33,
		FootprintGB:     960,
		ThrashOPB:       0.10,
		ThrashSlope:     4.0,
		SerialFrac:      0.008,
		Compressibility: 1.90,
		CUScalingGamma:  0.45,
		Trace:           luleshTrace,
	}
}

// MiniAMR is the 3D stencil with adaptive mesh refinement: block-structured
// streaming with refinement-driven irregularity; memory-intensive.
func MiniAMR() Kernel {
	return Kernel{
		Name:            "MiniAMR",
		Description:     "3D stencil computation with adaptive mesh refinement",
		Category:        MemoryIntensive,
		Intensity:       1.6,
		MaxUtilization:  0.47,
		MLPPerCU:        36,
		Activity:        0.46,
		CacheLocality:   0.30,
		ExtTrafficFrac:  0.75,
		WriteFrac:       0.30,
		FootprintGB:     1024,
		ThrashOPB:       0.11,
		ThrashSlope:     2.4,
		SerialFrac:      0.012,
		Compressibility: 1.30,
		CUScalingGamma:  0.40,
		Trace:           miniAMRTrace,
	}
}

// XSBench is the Monte Carlo particle-transport macroscopic-cross-section
// lookup kernel: random reads into a multi-gigabyte table; the most
// memory-latency-bound kernel in the suite.
func XSBench() Kernel {
	return Kernel{
		Name:            "XSBench",
		Description:     "Monte Carlo particle transport simulation",
		Category:        MemoryIntensive,
		Intensity:       0.9,
		MaxUtilization:  0.35,
		MLPPerCU:        12,
		Activity:        0.30,
		CacheLocality:   0.02,
		ExtTrafficFrac:  0.89,
		WriteFrac:       0.02,
		FootprintGB:     1024,
		ThrashOPB:       0.09,
		ThrashSlope:     2.0,
		SerialFrac:      0.002,
		Compressibility: 1.05,
		CUScalingGamma:  0.55,
		Trace:           xsbenchTrace,
	}
}

// SNAP is the discrete-ordinates neutral-particle transport proxy: wavefront
// sweeps with abundant angle/group parallelism — high MLP lets it hide
// chiplet latency almost completely (Fig. 7).
func SNAP() Kernel {
	return Kernel{
		Name:            "SNAP",
		Description:     "Discrete ordinates neutral particle transport application",
		Category:        MemoryIntensive,
		Intensity:       2.2,
		MaxUtilization:  0.30,
		MLPPerCU:        96,
		Activity:        0.38,
		CacheLocality:   0.15,
		ExtTrafficFrac:  0.80,
		WriteFrac:       0.40,
		FootprintGB:     1024,
		ThrashOPB:       0.13,
		ThrashSlope:     1.2,
		SerialFrac:      0.006,
		Compressibility: 1.25,
		CUScalingGamma:  0.12,
		Trace:           snapTrace,
	}
}
