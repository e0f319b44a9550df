// Package fabric is the inter-node network model that turns the single-node
// simulator into a machine simulator: pluggable topologies (2-level fat
// tree, dragonfly, 3D torus) with per-link bandwidth/latency/congestion
// accounting, the collective-communication patterns exascale proxy apps are
// built from (ring and tree all-reduce, nearest-neighbor halo exchange,
// all-to-all), and strong/weak scaling curves whose message sizes derive
// from the internal/workload kernel characterizations.
//
// The paper projects its 100,000-node machine by pure arithmetic (§V-F):
// one EHP node simulated, then multiplied. This package replaces that with
// an explicit network: every collective has an analytic cost model (O(p) or
// closed form, usable at the full machine scale) and a brute-force
// per-message event-driven replay on the internal/event kernel (ground
// truth at small scale). The property tests pin the two against each other
// on every topology, so the analytic numbers used at 100,000 nodes are the
// ones the replay validates at 64.
//
// Whole-node failures (the faults mask's node@/node: terms) are resolved
// against a topology here, rerouted around (dimension-ordered BFS detours
// on the torus; indirect topologies lose only the endpoint), and folded
// into ras.DegradedThroughput as a machine-level relative-performance
// surface.
package fabric

import (
	"fmt"
	"math"
)

// LinkSpec gives the physical parameters every link of a topology instance
// is built from. Node injection links run at BandwidthGBps per direction;
// aggregated links (fat-tree uplinks) scale from it. The values default to
// exascale-interconnect figures in the spirit of the MI300A Infinity-Fabric
// characterization: tens of GB/s per directed node link, sub-microsecond
// per-hop latency.
type LinkSpec struct {
	// BandwidthGBps is the node-level link bandwidth, per direction.
	BandwidthGBps float64
	// LatencyNs is the per-hop propagation plus switch traversal latency.
	LatencyNs float64
	// Ideal makes every link infinitely fast and every hop free: the
	// degenerate fabric under which the scaling model must reproduce the
	// paper's §V-F multiply-by-node-count arithmetic exactly.
	Ideal bool
}

// DefaultLinkSpec is the finite-budget reference fabric.
func DefaultLinkSpec() LinkSpec { return LinkSpec{BandwidthGBps: 50, LatencyNs: 500} }

// IdealLinkSpec is the infinite-bandwidth zero-latency degenerate fabric.
func IdealLinkSpec() LinkSpec { return LinkSpec{Ideal: true} }

// serNs is the serialization time of a payload on a link of the given
// bandwidth: bytes / (GB/s) happens to be ns directly (the 1e9 cancel).
func (s LinkSpec) serNs(bytes, gbps float64) float64 {
	if s.Ideal || gbps <= 0 {
		return 0
	}
	return bytes / gbps
}

// latNs is the per-hop latency.
func (s LinkSpec) latNs() float64 {
	if s.Ideal {
		return 0
	}
	return s.LatencyNs
}

// Topology is an inter-node network: a set of directed links with stable
// IDs, a deterministic route between any two nodes, and a logical 3D grid
// over the nodes (native for the torus, a near-cubic factorization for the
// indirect topologies) that the halo-exchange pattern runs on.
type Topology interface {
	Name() string
	Nodes() int
	// Links is the directed-link count; link IDs are in [0, Links).
	Links() int
	// LinkBW returns a link's bandwidth in GB/s (per direction).
	LinkBW(link int) float64
	// AppendRoute appends the directed links traversed from src to dst, in
	// hop order, to buf and returns the extended slice (buf itself when
	// src == dst). Routes are deterministic and shortest under the
	// topology's routing discipline (dimension order on the torus,
	// up/over/down on the indirect topologies). Appending into a reused
	// buffer keeps pricing a collective free of per-message allocations.
	AppendRoute(buf []int, src, dst int) []int
	// Grid returns the logical 3D decomposition x*y*z == Nodes.
	Grid() (x, y, z int)
	// Ring returns the nodes in ring order: grid-adjacent snake order on
	// the torus (so ring neighbors are physical neighbors), ID order on
	// the indirect topologies.
	Ring() []int
	Spec() LinkSpec
}

// avoider is implemented by topologies whose routes traverse other nodes
// and therefore must detour around dead ones (the torus). Indirect
// topologies route node->switch->node and keep their routes under node
// failures.
type avoider interface {
	routeAvoid(buf []int, src, dst int, dead []bool) ([]int, error)
}

// ErrPartitioned reports that node failures disconnect the surviving nodes.
var ErrPartitioned = fmt.Errorf("fabric: node failures partition the network")

// New builds a topology of the given kind ("torus", "fat-tree",
// "dragonfly") over p nodes with auto-selected shape parameters: the torus
// picks the most cubic factorization of p, the fat tree the largest leaf
// size <= 64 dividing p, the dragonfly the largest group size <= ceil(sqrt
// p) dividing p.
func New(kind string, p int, spec LinkSpec) (Topology, error) {
	switch kind {
	case "torus":
		x, y, z := factor3(p)
		return NewTorus(x, y, z, spec)
	case "fat-tree":
		return NewFatTree(p, largestDivisorLE(p, 64), 1, spec)
	case "dragonfly":
		g := largestDivisorLE(p, int(math.Ceil(math.Sqrt(float64(p)))))
		return NewDragonfly(p, g, spec)
	}
	return nil, fmt.Errorf("fabric: unknown topology %q (want torus, fat-tree or dragonfly)", kind)
}

// Kinds lists the pluggable topology kinds New accepts.
func Kinds() []string { return []string{"torus", "fat-tree", "dragonfly"} }

// largestDivisorLE returns the largest divisor of p not exceeding limit
// (at least 1).
func largestDivisorLE(p, limit int) int {
	if limit >= p {
		return p
	}
	for d := limit; d > 1; d-- {
		if p%d == 0 {
			return d
		}
	}
	return 1
}

// factor3 factorizes p into the most cubic x*y*z (minimal x+y+z, ties
// broken lexicographically) — the logical process grid for halo exchange
// and the torus dimensions.
func factor3(p int) (int, int, int) {
	bx, by, bz := p, 1, 1
	best := p + 2
	for x := 1; x*x*x <= p; x++ {
		if p%x != 0 {
			continue
		}
		q := p / x
		for y := x; y*y <= q; y++ {
			if q%y != 0 {
				continue
			}
			z := q / y
			if s := x + y + z; s < best {
				best = s
				// Largest dimension first keeps the grid rendering
				// stable (x is the fastest-varying coordinate).
				bx, by, bz = z, y, x
			}
		}
	}
	return bx, by, bz
}

// gridIndex maps grid coordinates to a node ID (x fastest).
func gridIndex(x, y, z, gx, gy int) int { return x + gx*(y+gy*z) }

// gridCoords inverts gridIndex.
func gridCoords(n, gx, gy int) (x, y, z int) {
	x = n % gx
	n /= gx
	return x, n % gy, n / gy
}
