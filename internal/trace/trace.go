// Package trace analyzes synthetic memory traces (internal/workload):
// reuse-distance profiles (and from them cache-hit fractions at arbitrary
// capacities), footprints, and write fractions. Table I prints the
// measured write fraction; the hit fraction checks that the trace
// generators keep the locality ordering the migration and DRAM experiments
// consume. The analytic models read calibrated kernel fields, not these
// profiles.
package trace

import (
	"ena/internal/units"
	"ena/internal/workload"
)

// Profile summarizes one trace.
type Profile struct {
	Accesses      int
	DistinctLines int
	FootprintB    float64
	WriteFrac     float64

	// distances holds the LRU stack distance (in distinct 64-byte lines)
	// of every reuse; cold misses are recorded as -1.
	distances []int
}

// fenwick is a binary indexed tree used by the stack-distance algorithm.
type fenwick struct{ t []int }

func newFenwick(n int) *fenwick { return &fenwick{t: make([]int, n+1)} }

func (f *fenwick) add(i, v int) {
	for i++; i < len(f.t); i += i & (-i) {
		f.t[i] += v
	}
}

func (f *fenwick) sum(i int) int { // prefix sum of [0, i]
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.t[i]
	}
	return s
}

// Analyze computes the reuse-distance profile of a trace using the classic
// Fenwick-tree stack-distance algorithm (exact LRU distances in O(n log n)).
func Analyze(tr []workload.Access) *Profile {
	p := &Profile{Accesses: len(tr)}
	if len(tr) == 0 {
		return p
	}
	last := make(map[uint64]int, len(tr)) // line -> index of last access
	ft := newFenwick(len(tr))
	writes := 0
	p.distances = make([]int, 0, len(tr))
	for i, a := range tr {
		if a.Write {
			writes++
		}
		line := a.Addr / units.CacheLineBytes
		if j, ok := last[line]; ok {
			// Distinct lines touched in (j, i): the number of "last
			// access" markers still standing in that window.
			d := ft.sum(i-1) - ft.sum(j)
			p.distances = append(p.distances, d)
			ft.add(j, -1)
		} else {
			p.distances = append(p.distances, -1)
			p.DistinctLines++
		}
		ft.add(i, 1)
		last[line] = i
	}
	p.FootprintB = float64(p.DistinctLines) * units.CacheLineBytes
	p.WriteFrac = float64(writes) / float64(len(tr))
	return p
}

// HitFraction returns the fraction of accesses that hit in a fully
// associative LRU cache of the given capacity (bytes). Cold misses count as
// misses, so the result is conservative for short traces.
func (p *Profile) HitFraction(capacityBytes float64) float64 {
	if p.Accesses == 0 {
		return 0
	}
	capLines := int(capacityBytes / units.CacheLineBytes)
	hits := 0
	for _, d := range p.distances {
		if d >= 0 && d < capLines {
			hits++
		}
	}
	return float64(hits) / float64(p.Accesses)
}
