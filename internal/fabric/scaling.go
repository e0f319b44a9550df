package fabric

import (
	"fmt"
	"math"

	"ena/internal/workload"
)

// Mode selects how the problem grows with the node count.
type Mode int

const (
	// Strong scaling divides a fixed total problem across the nodes.
	Strong Mode = iota
	// Weak scaling keeps the per-node problem fixed as nodes are added.
	Weak
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Strong {
		return "strong"
	}
	return "weak"
}

// reduceBytes is the fixed global all-reduce payload per timestep: the
// handful of scalars (residual norms, energy sums, dt control) every
// iterative proxy app reduces each step.
const reduceBytes = 512

// CommProfile is the per-timestep communication a kernel generates at a
// given scale, derived from its workload characterization.
type CommProfile struct {
	// LocalBytes is the per-node resident working set.
	LocalBytes float64
	// HaloBytes is the per-face ghost-exchange payload (zero for
	// compute-intensive kernels with no domain coupling).
	HaloBytes float64
	// ReduceBytes is the global all-reduce payload.
	ReduceBytes float64
}

// haloDepth is the ghost-layer depth by kernel category: compute-intensive
// kernels (MaxFlops) exchange nothing; memory-intensive sweeps carry one
// layer; balanced stencil/dynamics codes carry two.
func haloDepth(c workload.Category) float64 {
	switch c {
	case workload.ComputeIntensive:
		return 0
	case workload.MemoryIntensive:
		return 1
	default:
		return 2
	}
}

// Profile derives kernel k's per-timestep communication at p nodes. The
// per-node domain is the kernel's characterized footprint (divided across
// nodes under strong scaling); treating it as a cube of 8-byte elements,
// one face holds (elements)^(2/3) of them, and the halo payload is
// depth * face * 8 bytes.
func Profile(k workload.Kernel, p int, mode Mode) CommProfile {
	local := k.FootprintGB * 1e9
	if mode == Strong && p > 0 {
		local /= float64(p)
	}
	face := math.Pow(local/8, 2.0/3.0)
	return CommProfile{
		LocalBytes:  local,
		HaloBytes:   haloDepth(k.Category) * face * 8,
		ReduceBytes: reduceBytes,
	}
}

// Point is one node count's evaluation on a fabric: per-timestep compute
// and communication costs, the resulting parallel efficiency, and the
// machine's delivered throughput.
type Point struct {
	Nodes      int     `json:"nodes"`
	ComputeNs  float64 `json:"compute_ns"`
	HaloNs     float64 `json:"halo_ns"`
	ReduceNs   float64 `json:"reduce_ns"`
	Efficiency float64 `json:"efficiency"`
	// DeliveredTFLOPs is nodeTFLOPs * nodes * Efficiency: under an ideal
	// fabric it reduces to the paper's §V-F multiply-by-node-count
	// projection exactly.
	DeliveredTFLOPs float64 `json:"delivered_tflops"`
}

// Evaluate prices one timestep of kernel k on communicator c using the
// analytic cost model: compute from the kernel's arithmetic intensity over
// its local bytes at the node's sustained rate, halo exchange over the
// derived ghost payload, and the cheaper of ring and tree all-reduce for
// the step's global reduction.
func Evaluate(c *Comm, k workload.Kernel, nodeTFLOPs float64, mode Mode) (Point, error) {
	pts, err := evaluate(c, []Series{{Kernel: k, NodeTFLOPs: nodeTFLOPs, Mode: mode}})
	if err != nil {
		return Point{}, err
	}
	return pts[0], nil
}

// evaluate is Evaluate for several series sharing one communicator, each
// point bit-identical to its own Evaluate call. The halo exchanges of all
// series are priced in one pass over the round schedule (see roundsNs), and
// the all-reduce once: its payload is the fixed reduceBytes whatever the
// kernel or mode.
func evaluate(c *Comm, series []Series) ([]Point, error) {
	p := c.Size()
	profs := make([]CommProfile, len(series))
	var haloBytes []float64
	for i, s := range series {
		if s.NodeTFLOPs <= 0 {
			return nil, fmt.Errorf("fabric: node rate %v TFLOP/s must be positive", s.NodeTFLOPs)
		}
		profs[i] = Profile(s.Kernel, p, s.Mode)
		// Kernels without ghost bytes exchange nothing.
		if profs[i].HaloBytes > 0 {
			haloBytes = append(haloBytes, profs[i].HaloBytes)
		}
	}
	// A single node communicates nothing: every price below is zero.
	halo, err := c.roundsNs(Halo, haloBytes)
	if err != nil {
		return nil, err
	}
	ringNs, err := c.AnalyticNs(AllReduceRing, reduceBytes)
	if err != nil {
		return nil, err
	}
	treeNs, err := c.AnalyticNs(AllReduceTree, reduceBytes)
	if err != nil {
		return nil, err
	}
	reduceNs := math.Min(ringNs, treeNs)
	out := make([]Point, len(series))
	for i, s := range series {
		var haloNs float64
		if profs[i].HaloBytes > 0 {
			haloNs, halo = halo[0], halo[1:]
		}
		// TFLOP/s is 1e3 FLOP/ns.
		computeNs := profs[i].LocalBytes * s.Kernel.Intensity / (s.NodeTFLOPs * 1e3)
		eff := 1.0
		if total := computeNs + haloNs + reduceNs; total > 0 {
			eff = computeNs / total
		}
		out[i] = Point{
			Nodes:           p,
			ComputeNs:       computeNs,
			HaloNs:          haloNs,
			ReduceNs:        reduceNs,
			Efficiency:      eff,
			DeliveredTFLOPs: s.NodeTFLOPs * float64(p) * eff,
		}
	}
	return out, nil
}

// Series is one scaling curve of a Curves sweep: a kernel at its sustained
// node rate under one scaling mode.
type Series struct {
	Kernel     workload.Kernel
	NodeTFLOPs float64
	Mode       Mode
}

// Curves evaluates every series over the given node counts on healthy
// topologies of the given kind; out[i][j] is series i at sizes[j], and each
// point is bit-identical to Evaluate on a fresh communicator. Each size
// builds its topology and communicator once and evaluates every series on
// it together (see evaluate). Sizes run one at a time: a 100,000-node
// communicator and its collective scratch are tens of MiB, and overlapping
// two of them raises peak memory by more than half.
func Curves(kind string, spec LinkSpec, series []Series, sizes []int) ([][]Point, error) {
	out := make([][]Point, len(series))
	for i := range out {
		out[i] = make([]Point, len(sizes))
	}
	for j, p := range sizes {
		t, err := New(kind, p, spec)
		if err != nil {
			return nil, err
		}
		pts, err := evaluate(NewComm(t), series)
		if err != nil {
			return nil, err
		}
		for i, pt := range pts {
			out[i][j] = pt
		}
	}
	return out, nil
}
