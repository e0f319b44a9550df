package fabric

import "fmt"

// FatTree is a 2-level fat tree: leaves of LeafSize nodes, each leaf
// connected to a non-blocking spine by one aggregated fat uplink of
// bandwidth LeafSize*B/Oversub per direction. With Oversub == 1 the tree
// is full-bisection; larger values model tapered uplinks.
//
// Directed link IDs: [0,p) node->leaf, [p,2p) leaf->node, then one up and
// one down link per leaf.
type FatTree struct {
	P        int
	LeafSize int
	Oversub  float64
	spec     LinkSpec
}

// NewFatTree builds a p-node fat tree; leafSize must divide p.
func NewFatTree(p, leafSize int, oversub float64, spec LinkSpec) (*FatTree, error) {
	if p < 1 || leafSize < 1 || p%leafSize != 0 {
		return nil, fmt.Errorf("fabric: fat-tree leaf size %d must divide the node count %d", leafSize, p)
	}
	if oversub <= 0 {
		return nil, fmt.Errorf("fabric: fat-tree oversubscription %v must be positive", oversub)
	}
	return &FatTree{P: p, LeafSize: leafSize, Oversub: oversub, spec: spec}, nil
}

func (t *FatTree) Name() string   { return fmt.Sprintf("fat-tree-%dx%d", t.P/t.LeafSize, t.LeafSize) }
func (t *FatTree) Nodes() int     { return t.P }
func (t *FatTree) leaves() int    { return t.P / t.LeafSize }
func (t *FatTree) Links() int     { return 2*t.P + 2*t.leaves() }
func (t *FatTree) Spec() LinkSpec { return t.spec }

// uplinkBW is the aggregated leaf uplink bandwidth.
func (t *FatTree) uplinkBW() float64 {
	return float64(t.LeafSize) * t.spec.BandwidthGBps / t.Oversub
}

func (t *FatTree) LinkBW(link int) float64 {
	if link < 2*t.P {
		return t.spec.BandwidthGBps
	}
	return t.uplinkBW()
}

// AppendRoute: same leaf is node->leaf->node; across leaves the aggregated
// uplink and the destination leaf's downlink are traversed in between.
func (t *FatTree) AppendRoute(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	qs, qd := src/t.LeafSize, dst/t.LeafSize
	if qs == qd {
		return append(buf, src, t.P+dst)
	}
	return append(buf, src, 2*t.P+qs, 2*t.P+t.leaves()+qd, t.P+dst)
}

func (t *FatTree) Grid() (int, int, int) { return factor3(t.P) }

func (t *FatTree) Ring() []int {
	out := make([]int, t.P)
	for i := range out {
		out[i] = i
	}
	return out
}
