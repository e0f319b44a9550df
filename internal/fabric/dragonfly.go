package fabric

import "fmt"

// Dragonfly is a one-router-per-group dragonfly: GroupSize nodes share a
// router, and every ordered router pair is joined by one global link of
// node-link bandwidth. Minimal routing is node -> router [-> global ->
// router] -> node; the interesting congestion lives on the global links,
// which is exactly the pressure pattern real dragonflies manage with
// adaptive routing (not modeled — routes here are minimal and
// deterministic).
//
// Directed link IDs: [0,p) node->router, [p,2p) router->node, then
// globals at 2p + src*groups + dst.
type Dragonfly struct {
	P         int
	GroupSize int
	spec      LinkSpec
}

// NewDragonfly builds a p-node dragonfly; groupSize must divide p.
func NewDragonfly(p, groupSize int, spec LinkSpec) (*Dragonfly, error) {
	if p < 1 || groupSize < 1 || p%groupSize != 0 {
		return nil, fmt.Errorf("fabric: dragonfly group size %d must divide the node count %d", groupSize, p)
	}
	return &Dragonfly{P: p, GroupSize: groupSize, spec: spec}, nil
}

func (t *Dragonfly) Name() string {
	return fmt.Sprintf("dragonfly-%dx%d", t.P/t.GroupSize, t.GroupSize)
}
func (t *Dragonfly) Nodes() int     { return t.P }
func (t *Dragonfly) groups() int    { return t.P / t.GroupSize }
func (t *Dragonfly) Links() int     { return 2*t.P + t.groups()*t.groups() }
func (t *Dragonfly) Spec() LinkSpec { return t.spec }

func (t *Dragonfly) LinkBW(link int) float64 { return t.spec.BandwidthGBps }

func (t *Dragonfly) AppendRoute(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	qs, qd := src/t.GroupSize, dst/t.GroupSize
	if qs == qd {
		return append(buf, src, t.P+dst)
	}
	return append(buf, src, 2*t.P+qs*t.groups()+qd, t.P+dst)
}

func (t *Dragonfly) Grid() (int, int, int) { return factor3(t.P) }

func (t *Dragonfly) Ring() []int {
	out := make([]int, t.P)
	for i := range out {
		out[i] = i
	}
	return out
}
