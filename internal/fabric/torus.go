package fabric

import (
	"fmt"
	"slices"
)

// Torus is a 3D torus with directed wrap links in all six directions and
// deterministic dimension-ordered (x, then y, then z) shortest-path
// routing, ties broken toward the positive direction.
type Torus struct {
	X, Y, Z int
	spec    LinkSpec
}

// torus link IDs: 6 per node, node*6+dir.
const (
	dirXPos = iota
	dirXNeg
	dirYPos
	dirYNeg
	dirZPos
	dirZNeg
	torusDirs
)

// NewTorus builds an x*y*z torus.
func NewTorus(x, y, z int, spec LinkSpec) (*Torus, error) {
	if x < 1 || y < 1 || z < 1 {
		return nil, fmt.Errorf("fabric: torus dimensions %dx%dx%d must be positive", x, y, z)
	}
	return &Torus{X: x, Y: y, Z: z, spec: spec}, nil
}

func (t *Torus) Name() string   { return fmt.Sprintf("torus-%dx%dx%d", t.X, t.Y, t.Z) }
func (t *Torus) Nodes() int     { return t.X * t.Y * t.Z }
func (t *Torus) Links() int     { return t.Nodes() * torusDirs }
func (t *Torus) Spec() LinkSpec { return t.spec }

func (t *Torus) LinkBW(link int) float64 { return t.spec.BandwidthGBps }

func (t *Torus) Grid() (int, int, int) { return t.X, t.Y, t.Z }

// step returns the neighbor of n one hop in dir, with the link taken.
func (t *Torus) step(n, dir int) (next, link int) {
	x, y, z := gridCoords(n, t.X, t.Y)
	switch dir {
	case dirXPos:
		x = (x + 1) % t.X
	case dirXNeg:
		x = (x - 1 + t.X) % t.X
	case dirYPos:
		y = (y + 1) % t.Y
	case dirYNeg:
		y = (y - 1 + t.Y) % t.Y
	case dirZPos:
		z = (z + 1) % t.Z
	case dirZNeg:
		z = (z - 1 + t.Z) % t.Z
	}
	return gridIndex(x, y, z, t.X, t.Y), n*torusDirs + dir
}

// dimSteps returns the hop count and direction to correct one dimension:
// the shortest way around the ring, ties toward positive.
func dimSteps(from, to, size, pos, neg int) (hops, dir int) {
	d := (to - from + size) % size
	if d == 0 {
		return 0, pos
	}
	if d*2 <= size {
		return d, pos
	}
	return size - d, neg
}

// AppendRoute is dimension-ordered: correct x, then y, then z.
func (t *Torus) AppendRoute(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	sx, sy, sz := gridCoords(src, t.X, t.Y)
	dx, dy, dz := gridCoords(dst, t.X, t.Y)
	hx, dirx := dimSteps(sx, dx, t.X, dirXPos, dirXNeg)
	hy, diry := dimSteps(sy, dy, t.Y, dirYPos, dirYNeg)
	hz, dirz := dimSteps(sz, dz, t.Z, dirZPos, dirZNeg)
	cur := src
	for _, leg := range [3][2]int{{hx, dirx}, {hy, diry}, {hz, dirz}} {
		for i := 0; i < leg[0]; i++ {
			next, l := t.step(cur, leg[1])
			buf = append(buf, l)
			cur = next
		}
	}
	return buf
}

// Ring returns the snake order: x sweeps alternate direction row by row, y
// rows alternate within planes, so consecutive ring nodes are always grid
// neighbors (the torus embeds the all-reduce ring with one-hop steps
// everywhere except the final wrap).
func (t *Torus) Ring() []int {
	out := make([]int, 0, t.Nodes())
	row := 0
	for z := 0; z < t.Z; z++ {
		for yy := 0; yy < t.Y; yy++ {
			y := yy
			if z%2 == 1 {
				y = t.Y - 1 - yy
			}
			for xx := 0; xx < t.X; xx++ {
				x := xx
				if row%2 == 1 {
					x = t.X - 1 - xx
				}
				out = append(out, gridIndex(x, y, z, t.X, t.Y))
			}
			row++
		}
	}
	return out
}

// routeAvoid routes around dead nodes with a deterministic BFS over the
// grid (fixed direction order, first-discovery predecessors), returning
// ErrPartitioned when no surviving path exists. Intermediate hops avoid
// dead nodes; src and dst themselves must be alive. Like AppendRoute, the
// links are appended to buf.
func (t *Torus) routeAvoid(buf []int, src, dst int, dead []bool) ([]int, error) {
	if src == dst {
		return buf, nil
	}
	// Fast path: if the dimension-ordered route is clean, keep it.
	start := len(buf)
	buf = t.AppendRoute(buf, src, dst)
	clean := true
	for _, l := range buf[start:] {
		next, _ := t.step(l/torusDirs, l%torusDirs)
		if next != dst && dead[next] {
			clean = false
			break
		}
	}
	if clean {
		return buf, nil
	}
	buf = buf[:start]
	p := t.Nodes()
	prev := make([]int32, p) // packed: node*8+dir+1; 0 = unvisited
	prev[src] = -1
	queue := make([]int, 0, p)
	queue = append(queue, src)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for dir := 0; dir < torusDirs; dir++ {
			next, _ := t.step(n, dir)
			if next == n || prev[next] != 0 || (next != dst && dead[next]) {
				continue
			}
			prev[next] = int32(n*8 + dir + 1)
			if next == dst {
				// Unwind the predecessor chain into link IDs (dst back to
				// src), then reverse the appended run into hop order.
				for at := dst; at != src; {
					pk := prev[at]
					from := int(pk-1) / 8
					d := int(pk-1) % 8
					buf = append(buf, from*torusDirs+d)
					at = from
				}
				slices.Reverse(buf[start:])
				return buf, nil
			}
			queue = append(queue, next)
		}
	}
	return buf, ErrPartitioned
}
