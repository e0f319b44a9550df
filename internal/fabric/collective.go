package fabric

import (
	"fmt"
	"math/bits"
)

// Op selects a collective-communication pattern.
type Op int

const (
	// AllReduceRing is the bandwidth-optimal ring all-reduce: 2(p-1)
	// rounds of neighbor exchange with chunks of size/p.
	AllReduceRing Op = iota
	// AllReduceTree is the latency-optimal binomial-tree all-reduce:
	// reduce up, broadcast down, full-size messages. On a healthy torus
	// it runs dimension by dimension so every round's messages travel
	// link-disjoint grid segments.
	AllReduceTree
	// Halo is the nearest-neighbor halo exchange: six rounds, one per
	// face of the logical 3D grid, each a permutation send of one face's
	// ghost bytes.
	Halo
	// AllToAll is the complete exchange: p-1 shift rounds, each node
	// sending its per-pair payload to one distinct peer per round.
	AllToAll
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case AllReduceRing:
		return "allreduce-ring"
	case AllReduceTree:
		return "allreduce-tree"
	case Halo:
		return "halo"
	case AllToAll:
		return "all-to-all"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// msg is one point-to-point transfer between node IDs.
type msg struct{ src, dst int }

// round is one barrier-synchronized communication step: all messages
// launch together, the next round starts when the slowest completes (the
// round-synchronized semantics both the analytic model and the replay
// implement). repeat > 1 marks identical back-to-back rounds (the ring's).
// The schedule does not depend on the payload: split divides the
// collective's payload into the round's per-message bytes (p for the
// ring's chunks, 1 elsewhere), so one schedule serves any payload.
type round struct {
	split  float64
	repeat int
	msgs   []msg
}

// msgBytes is the per-message payload of the round for a collective moving
// payload bytes.
func (r round) msgBytes(payload float64) float64 { return payload / r.split }

// Comm is a communicator: a topology plus the participating nodes. The
// healthy communicator includes every node; a degraded one excludes the
// failed set and reroutes around it.
type Comm struct {
	t      Topology
	ranks  []int // rank -> node, in the topology's ring order
	rankOf []int // node -> rank, -1 when dead
	dead   []bool
}

// NewComm builds the healthy communicator over all of t's nodes.
func NewComm(t Topology) *Comm {
	ring := t.Ring()
	rankOf := make([]int, t.Nodes())
	for r, n := range ring {
		rankOf[n] = r
	}
	return &Comm{t: t, ranks: ring, rankOf: rankOf}
}

// NewDegradedComm builds a communicator excluding the failed nodes; ranks
// are the survivors in ring order. At least one node must survive.
func NewDegradedComm(t Topology, failed []int) (*Comm, error) {
	dead := make([]bool, t.Nodes())
	for _, n := range failed {
		if n < 0 || n >= t.Nodes() {
			return nil, fmt.Errorf("fabric: failed node %d out of range (topology has %d nodes)", n, t.Nodes())
		}
		dead[n] = true
	}
	c := &Comm{t: t, dead: dead, rankOf: make([]int, t.Nodes())}
	for _, n := range t.Ring() {
		if dead[n] {
			c.rankOf[n] = -1
			continue
		}
		c.rankOf[n] = len(c.ranks)
		c.ranks = append(c.ranks, n)
	}
	if len(c.ranks) == 0 {
		return nil, fmt.Errorf("fabric: every node failed")
	}
	return c, nil
}

// Topology returns the underlying network.
func (c *Comm) Topology() Topology { return c.t }

// Size is the participant count.
func (c *Comm) Size() int { return len(c.ranks) }

// appendRoute appends the links from one node to another to buf, detouring
// around dead nodes where the topology requires it.
func (c *Comm) appendRoute(buf []int, src, dst int) ([]int, error) {
	if c.dead != nil {
		if av, ok := c.t.(avoider); ok {
			return av.routeAvoid(buf, src, dst, c.dead)
		}
	}
	return c.t.AppendRoute(buf, src, dst), nil
}

// pairs is the number of binomial-step partners in a line of n members:
// the i = 0, 2*step, 4*step, ... with i+step < n.
func pairs(n, step int) int {
	if n <= step {
		return 0
	}
	return (n - step + 2*step - 1) / (2 * step)
}

// rounds generates op's full round schedule. Payloads follow one
// convention per op (see round.msgBytes): AllReduce* take the total vector
// size, Halo the per-face ghost bytes, AllToAll the per-pair payload. This
// is the single source of truth for what the collective sends — the
// analytic cost model and the event-driven replay both consume it (the
// analytic all-to-all replaces enumeration with closed forms on healthy
// topologies, over these same rounds).
func (c *Comm) rounds(op Op) []round {
	p := len(c.ranks)
	if p < 2 {
		return nil
	}
	switch op {
	case AllReduceRing:
		ms := make([]msg, p)
		for i := range ms {
			ms[i] = msg{src: c.ranks[i], dst: c.ranks[(i+1)%p]}
		}
		return []round{{split: float64(p), repeat: 2 * (p - 1), msgs: ms}}

	case AllReduceTree:
		var reduce []round
		if tor, ok := c.t.(*Torus); ok && c.dead == nil {
			reduce = torusTreeReduce(tor)
		} else {
			reduce = make([]round, 0, bits.Len(uint(p-1)))
			for step := 1; step < p; step *= 2 {
				ms := make([]msg, 0, pairs(p, step))
				for i := 0; i+step < p; i += 2 * step {
					ms = append(ms, msg{src: c.ranks[i+step], dst: c.ranks[i]})
				}
				reduce = append(reduce, round{split: 1, repeat: 1, msgs: ms})
			}
		}
		// Broadcast mirrors the reduce: same pairs, reversed order and
		// direction.
		out := make([]round, 0, 2*len(reduce))
		out = append(out, reduce...)
		for i := len(reduce) - 1; i >= 0; i-- {
			ms := make([]msg, len(reduce[i].msgs))
			for j, m := range reduce[i].msgs {
				ms[j] = msg{src: m.dst, dst: m.src}
			}
			out = append(out, round{split: 1, repeat: 1, msgs: ms})
		}
		return out

	case Halo:
		gx, gy, gz := c.t.Grid()
		out := make([]round, 0, 6)
		for _, d := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
			size := [3]int{gx, gy, gz}
			if (d[0] != 0 && size[0] < 2) || (d[1] != 0 && size[1] < 2) || (d[2] != 0 && size[2] < 2) {
				continue // a flat dimension has no faces to exchange
			}
			ms := make([]msg, 0, p)
			for _, n := range c.ranks {
				if dst, ok := c.haloNeighbor(n, d, gx, gy, gz); ok {
					ms = append(ms, msg{src: n, dst: dst})
				}
			}
			if len(ms) > 0 {
				out = append(out, round{split: 1, repeat: 1, msgs: ms})
			}
		}
		return out

	case AllToAll:
		if tor, ok := c.t.(*Torus); ok && c.dead == nil {
			return torusAllToAll(tor)
		}
		out := make([]round, 0, p-1)
		for r := 1; r < p; r++ {
			ms := make([]msg, p)
			for i := range ms {
				ms[i] = msg{src: c.ranks[i], dst: c.ranks[(i+r)%p]}
			}
			out = append(out, round{split: 1, repeat: 1, msgs: ms})
		}
		return out
	}
	return nil
}

// haloNeighbor finds n's halo partner one logical-grid step in direction d,
// skipping dead nodes to the next survivor along the same axis (the
// redistribution a resilient domain decomposition performs). Reports false
// when the scan wraps back to n itself.
func (c *Comm) haloNeighbor(n int, d [3]int, gx, gy, gz int) (int, bool) {
	x, y, z := gridCoords(n, gx, gy)
	for s := 1; ; s++ {
		nx := ((x+d[0]*s)%gx + gx) % gx
		ny := ((y+d[1]*s)%gy + gy) % gy
		nz := ((z+d[2]*s)%gz + gz) % gz
		cand := gridIndex(nx, ny, nz, gx, gy)
		if cand == n {
			return 0, false
		}
		if c.dead == nil || !c.dead[cand] {
			return cand, true
		}
	}
}

// torusTreeReduce builds the dimension-by-dimension binomial reduce on a
// healthy torus: every x-line reduces to its x==0 node in parallel, then
// the x==0 plane reduces along y, then the (0,0,*) line along z. Each
// round's messages travel disjoint same-dimension ring segments, so the
// rounds are congestion-free by construction (the property the analytic
// model's zero-contention sum relies on).
func torusTreeReduce(t *Torus) []round {
	out := make([]round, 0, bits.Len(uint(t.X-1))+bits.Len(uint(t.Y-1))+bits.Len(uint(t.Z-1)))
	addDim := func(size int, node func(i, a, b int) int, spanA, spanB int) {
		for step := 1; step < size; step *= 2 {
			ms := make([]msg, 0, pairs(size, step)*spanA*spanB)
			for i := 0; i+step < size; i += 2 * step {
				for a := 0; a < spanA; a++ {
					for b := 0; b < spanB; b++ {
						ms = append(ms, msg{src: node(i+step, a, b), dst: node(i, a, b)})
					}
				}
			}
			if len(ms) > 0 {
				out = append(out, round{split: 1, repeat: 1, msgs: ms})
			}
		}
	}
	addDim(t.X, func(i, a, b int) int { return gridIndex(i, a, b, t.X, t.Y) }, t.Y, t.Z)
	addDim(t.Y, func(i, a, b int) int { return gridIndex(0, i, a, t.X, t.Y) }, t.Z, 1)
	addDim(t.Z, func(i, a, b int) int { return gridIndex(0, 0, i, t.X, t.Y) }, 1, 1)
	return out
}

// torusAllToAll builds the p-1 uniform-shift rounds of a healthy torus
// complete exchange: each round every node sends to the peer one fixed
// grid offset away. Dimension-ordered routing turns each round into three
// chained conveyors with zero queueing (see cost.go), which is what makes
// the closed-form cost exact.
func torusAllToAll(t *Torus) []round {
	p := t.Nodes()
	out := make([]round, 0, p-1)
	for dz := 0; dz < t.Z; dz++ {
		for dy := 0; dy < t.Y; dy++ {
			for dx := 0; dx < t.X; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				ms := make([]msg, p)
				for n := range ms {
					x, y, z := gridCoords(n, t.X, t.Y)
					ms[n] = msg{src: n, dst: gridIndex((x+dx)%t.X, (y+dy)%t.Y, (z+dz)%t.Z, t.X, t.Y)}
				}
				out = append(out, round{split: 1, repeat: 1, msgs: ms})
			}
		}
	}
	return out
}
