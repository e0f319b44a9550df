package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ena/internal/workload"
)

// mk builds a trace from line indices (each index is a distinct 64 B line).
func mk(lines ...uint64) []workload.Access {
	out := make([]workload.Access, len(lines))
	for i, l := range lines {
		out[i] = workload.Access{Addr: l * 64}
	}
	return out
}

func TestStackDistanceExact(t *testing.T) {
	// Classic example: A B C A -> A's reuse distance is 2 (B, C between).
	p := Analyze(mk(0, 1, 2, 0))
	want := []int{-1, -1, -1, 2}
	if len(p.distances) != len(want) {
		t.Fatalf("distances = %v", p.distances)
	}
	for i := range want {
		if p.distances[i] != want[i] {
			t.Fatalf("distances = %v, want %v", p.distances, want)
		}
	}

	// Repeated accesses to the same line have distance 0.
	p = Analyze(mk(5, 5, 5))
	if p.distances[1] != 0 || p.distances[2] != 0 {
		t.Errorf("same-line reuse distance should be 0: %v", p.distances)
	}

	// A B A B: each reuse skips exactly one distinct line.
	p = Analyze(mk(0, 1, 0, 1))
	if p.distances[2] != 1 || p.distances[3] != 1 {
		t.Errorf("interleaved distances = %v", p.distances)
	}
}

func TestStackDistanceDuplicatesNotDoubleCounted(t *testing.T) {
	// A B B A: only ONE distinct line (B) between A's uses.
	p := Analyze(mk(0, 1, 1, 0))
	if p.distances[3] != 1 {
		t.Errorf("distance = %d, want 1 (B counted once)", p.distances[3])
	}
}

func TestFootprintAndCold(t *testing.T) {
	p := Analyze(mk(0, 1, 2, 0, 1, 2))
	if p.DistinctLines != 3 {
		t.Errorf("DistinctLines = %d", p.DistinctLines)
	}
	if p.FootprintB != 3*64 {
		t.Errorf("FootprintB = %v", p.FootprintB)
	}
}

func TestHitFraction(t *testing.T) {
	// A B A B with a 1-line cache: reuse distance 1 >= 1 line, so misses.
	p := Analyze(mk(0, 1, 0, 1))
	if got := p.HitFraction(64); got != 0 {
		t.Errorf("1-line cache hit fraction = %v", got)
	}
	// With a 2-line cache both reuses hit.
	if got := p.HitFraction(128); got != 0.5 {
		t.Errorf("2-line cache hit fraction = %v", got)
	}
}

func TestHitFractionMonotoneInCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lines := make([]uint64, 300)
		for i := range lines {
			lines[i] = uint64(rng.Intn(40))
		}
		p := Analyze(mk(lines...))
		prev := -1.0
		for capLines := 1; capLines <= 64; capLines *= 2 {
			h := p.HitFraction(float64(capLines * 64))
			if h < prev-1e-12 {
				return false
			}
			prev = h
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWriteFrac(t *testing.T) {
	tr := mk(0, 1, 2, 3)
	tr[1].Write = true
	p := Analyze(tr)
	if p.WriteFrac != 0.25 {
		t.Errorf("WriteFrac = %v", p.WriteFrac)
	}
}

func TestEmptyTrace(t *testing.T) {
	p := Analyze(nil)
	if p.Accesses != 0 || p.HitFraction(1<<20) != 0 || p.DistinctLines != 0 || p.WriteFrac != 0 {
		t.Error("empty trace should yield zeros")
	}
}

func TestKernelLocalityOrdering(t *testing.T) {
	// Trace-derived cache behaviour should respect the characterization
	// ordering: XSBench (random over a huge table) must hit far less in a
	// chiplet-sized cache than MaxFlops (tiny resident buffer).
	const cacheBytes = 4 << 20
	hit := func(name string) float64 {
		k, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return Analyze(k.Trace(11, 12000)).HitFraction(cacheBytes)
	}
	mf, xs := hit("MaxFlops"), hit("XSBench")
	if mf <= xs {
		t.Errorf("MaxFlops hit %.3f should exceed XSBench hit %.3f", mf, xs)
	}
	if xs > 0.2 {
		t.Errorf("XSBench should thrash a 4 MiB cache, hit = %.3f", xs)
	}
}
