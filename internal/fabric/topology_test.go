package fabric

import (
	"errors"
	"slices"
	"testing"
)

// torusDist is the wraparound Manhattan distance on the torus grid.
func torusDist(t *Torus, a, b int) int {
	ax, ay, az := gridCoords(a, t.X, t.Y)
	bx, by, bz := gridCoords(b, t.X, t.Y)
	ring := func(p, q, n int) int {
		d := (q - p + n) % n
		return min(d, n-d)
	}
	return ring(ax, bx, t.X) + ring(ay, by, t.Y) + ring(az, bz, t.Z)
}

func TestTorusRouteShortestAndValid(t *testing.T) {
	tor, err := NewTorus(4, 3, 2, DefaultLinkSpec())
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < tor.Nodes(); src++ {
		for dst := 0; dst < tor.Nodes(); dst++ {
			links := tor.AppendRoute(nil, src, dst)
			if len(links) != torusDist(tor, src, dst) {
				t.Fatalf("route %d->%d has %d hops, want %d", src, dst, len(links), torusDist(tor, src, dst))
			}
			cur := src
			for _, l := range links {
				if l < 0 || l >= tor.Links() {
					t.Fatalf("route %d->%d: link %d out of range", src, dst, l)
				}
				if l/torusDirs != cur {
					t.Fatalf("route %d->%d: link %d does not leave current node %d", src, dst, l, cur)
				}
				cur, _ = tor.step(cur, l%torusDirs)
			}
			if cur != dst {
				t.Fatalf("route %d->%d ends at %d", src, dst, cur)
			}
		}
	}
}

// refRoute restates each topology's routing discipline hop by hop, as an
// allocating oracle for AppendRoute: the torus corrects x, then y, then z,
// each the shortest way around its ring with ties toward positive; the
// indirect topologies go node -> switch [-> spine or global ->] -> node.
func refRoute(tp Topology, src, dst int) []int {
	if src == dst {
		return nil
	}
	switch t := tp.(type) {
	case *Torus:
		var links []int
		cur := src
		for dim, size := range [3]int{t.X, t.Y, t.Z} {
			coord := func(n int) int {
				x, y, z := gridCoords(n, t.X, t.Y)
				return [3]int{x, y, z}[dim]
			}
			for coord(cur) != coord(dst) {
				dir := 2*dim + 1 // the dimension's negative direction
				if d := (coord(dst) - coord(cur) + size) % size; 2*d <= size {
					dir = 2 * dim
				}
				links = append(links, cur*torusDirs+dir)
				cur, _ = t.step(cur, dir)
			}
		}
		return links
	case *FatTree:
		qs, qd := src/t.LeafSize, dst/t.LeafSize
		if qs == qd {
			return []int{src, t.P + dst}
		}
		return []int{src, 2*t.P + qs, 2*t.P + t.leaves() + qd, t.P + dst}
	case *Dragonfly:
		qs, qd := src/t.GroupSize, dst/t.GroupSize
		if qs == qd {
			return []int{src, t.P + dst}
		}
		return []int{src, 2*t.P + qs*t.groups() + qd, t.P + dst}
	}
	panic("refRoute: unknown topology")
}

// TestAppendRouteExtendsBuffer: appending a route onto a non-empty buffer
// returns that buffer's contents plus exactly the route's links, for every
// src/dst pair of every test topology, whether or not the append has to
// regrow the buffer.
func TestAppendRouteExtendsBuffer(t *testing.T) {
	prefix := []int{-3, -2, -1}
	for _, tp := range testTopologies(t, DefaultLinkSpec()) {
		for src := 0; src < tp.Nodes(); src++ {
			for dst := 0; dst < tp.Nodes(); dst++ {
				want := append(slices.Clone(prefix), refRoute(tp, src, dst)...)
				for _, spare := range []int{0, 16} {
					buf := append(make([]int, 0, len(prefix)+spare), prefix...)
					if got := tp.AppendRoute(buf, src, dst); !slices.Equal(got, want) {
						t.Fatalf("%s: AppendRoute(%v, %d, %d) = %v, want %v", tp.Name(), prefix, src, dst, got, want)
					}
				}
			}
		}
	}
}

func TestRingIsGridAdjacentPermutation(t *testing.T) {
	for _, tp := range testTopologies(t, DefaultLinkSpec()) {
		ring := tp.Ring()
		if len(ring) != tp.Nodes() {
			t.Fatalf("%s: ring has %d entries, want %d", tp.Name(), len(ring), tp.Nodes())
		}
		seen := make([]bool, tp.Nodes())
		for _, n := range ring {
			if n < 0 || n >= tp.Nodes() || seen[n] {
				t.Fatalf("%s: ring is not a permutation", tp.Name())
			}
			seen[n] = true
		}
		if tor, ok := tp.(*Torus); ok && tor.Nodes() > 1 {
			// The snake guarantees every consecutive pair is one hop apart
			// (only the final wrap may be longer).
			for i := 0; i+1 < len(ring); i++ {
				if d := torusDist(tor, ring[i], ring[i+1]); d != 1 {
					t.Fatalf("%s: ring step %d->%d spans %d hops", tor.Name(), ring[i], ring[i+1], d)
				}
			}
		}
	}
}

func TestIndirectRoutesUseValidLinks(t *testing.T) {
	for _, tp := range testTopologies(t, DefaultLinkSpec()) {
		for _, src := range []int{0, tp.Nodes() / 2, tp.Nodes() - 1} {
			for _, dst := range []int{0, 1 % tp.Nodes(), tp.Nodes() - 1} {
				for _, l := range tp.AppendRoute(nil, src, dst) {
					if l < 0 || l >= tp.Links() {
						t.Fatalf("%s: route %d->%d uses link %d outside [0,%d)", tp.Name(), src, dst, l, tp.Links())
					}
					if tp.LinkBW(l) <= 0 {
						t.Fatalf("%s: link %d has bandwidth %v", tp.Name(), l, tp.LinkBW(l))
					}
				}
			}
		}
	}
}

func TestRouteAvoidDetoursAroundDeadNodes(t *testing.T) {
	tor, err := NewTorus(4, 4, 1, DefaultLinkSpec())
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, tor.Nodes())
	// Kill the direct dimension-ordered path from (0,0) to (2,0).
	dead[gridIndex(1, 0, 0, 4, 4)] = true
	src, dst := gridIndex(0, 0, 0, 4, 4), gridIndex(2, 0, 0, 4, 4)
	links, err := tor.routeAvoid(nil, src, dst, dead)
	if err != nil {
		t.Fatal(err)
	}
	cur := src
	for _, l := range links {
		cur, _ = tor.step(l/torusDirs, l%torusDirs)
		if cur != dst && dead[cur] {
			t.Fatalf("detour passes through dead node %d", cur)
		}
	}
	if cur != dst {
		t.Fatalf("detour ends at %d, want %d", cur, dst)
	}
	if len(links) < 2 {
		t.Fatalf("detour %v is implausibly short", links)
	}
	// Detours and clean routes alike append onto the caller's buffer.
	for _, d := range []int{dst, gridIndex(0, 2, 0, 4, 4)} {
		fresh, err := tor.routeAvoid(nil, src, d, dead)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tor.routeAvoid([]int{-1}, src, d, dead)
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]int{-1}, fresh...); !slices.Equal(got, want) {
			t.Fatalf("routeAvoid onto [-1] to %d = %v, want %v", d, got, want)
		}
	}
}

func TestRouteAvoidPartition(t *testing.T) {
	tor, err := NewTorus(3, 3, 1, DefaultLinkSpec())
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, tor.Nodes())
	// Surround (1,1): all four in-plane neighbors die, isolating it.
	for _, n := range []int{gridIndex(0, 1, 0, 3, 3), gridIndex(2, 1, 0, 3, 3), gridIndex(1, 0, 0, 3, 3), gridIndex(1, 2, 0, 3, 3)} {
		dead[n] = true
	}
	if _, err := tor.routeAvoid(nil, gridIndex(1, 1, 0, 3, 3), 0, dead); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("got %v, want ErrPartitioned", err)
	}
	// The communicator surfaces the same error from the collectives.
	comm, err := NewDegradedComm(tor, []int{gridIndex(0, 1, 0, 3, 3), gridIndex(2, 1, 0, 3, 3), gridIndex(1, 0, 0, 3, 3), gridIndex(1, 2, 0, 3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comm.AnalyticNs(AllToAll, 1024); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("analytic on partitioned comm: got %v, want ErrPartitioned", err)
	}
}

func TestNewAutoShapes(t *testing.T) {
	cases := []struct {
		kind string
		p    int
		name string
	}{
		{"torus", 64, "torus-4x4x4"},
		{"torus", 24, "torus-4x3x2"},
		{"torus", 100000, "torus-50x50x40"},
		{"fat-tree", 100, "fat-tree-2x50"},
		{"fat-tree", 64, "fat-tree-1x64"},
		{"dragonfly", 100, "dragonfly-10x10"},
		{"dragonfly", 24, "dragonfly-6x4"},
	}
	for _, tc := range cases {
		tp, err := New(tc.kind, tc.p, DefaultLinkSpec())
		if err != nil {
			t.Fatalf("New(%s, %d): %v", tc.kind, tc.p, err)
		}
		if tp.Name() != tc.name {
			t.Errorf("New(%s, %d) = %s, want %s", tc.kind, tc.p, tp.Name(), tc.name)
		}
		if tp.Nodes() != tc.p {
			t.Errorf("New(%s, %d) has %d nodes", tc.kind, tc.p, tp.Nodes())
		}
	}
	if _, err := New("hypercube", 8, DefaultLinkSpec()); err == nil {
		t.Error("unknown kind must fail")
	}
	if len(Kinds()) != 3 {
		t.Errorf("Kinds() = %v", Kinds())
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	const gx, gy, gz = 5, 3, 4
	for n := 0; n < gx*gy*gz; n++ {
		x, y, z := gridCoords(n, gx, gy)
		if got := gridIndex(x, y, z, gx, gy); got != n {
			t.Fatalf("round trip %d -> (%d,%d,%d) -> %d", n, x, y, z, got)
		}
	}
}
