package fabric

import (
	"fmt"
	"math"
	"testing"
)

// testTopologies builds the cross-product of shapes the property tests run
// over: every topology kind, direct and indirect, with flat dimensions,
// oversubscription, single-leaf/single-group edge cases and non-power-of-2
// sizes, capped at 64 nodes so the replay stays cheap.
func testTopologies(t *testing.T, spec LinkSpec) []Topology {
	t.Helper()
	var out []Topology
	add := func(tp Topology, err error) {
		if err != nil {
			t.Fatalf("building test topology: %v", err)
		}
		out = append(out, tp)
	}
	add(NewTorus(2, 1, 1, spec))
	add(NewTorus(2, 2, 2, spec))
	add(NewTorus(3, 3, 3, spec))
	add(NewTorus(4, 3, 2, spec))
	add(NewTorus(5, 2, 1, spec))
	add(NewTorus(4, 4, 4, spec))
	add(NewFatTree(6, 6, 1, spec)) // single leaf
	add(NewFatTree(8, 4, 1, spec))
	add(NewFatTree(24, 8, 2, spec))
	add(NewFatTree(64, 16, 4, spec))
	add(NewDragonfly(6, 6, spec)) // single group
	add(NewDragonfly(8, 4, spec))
	add(NewDragonfly(24, 4, spec))
	add(NewDragonfly(64, 8, spec))
	return out
}

var testSpecs = []LinkSpec{
	DefaultLinkSpec(),
	{BandwidthGBps: 7.5, LatencyNs: 120},  // bandwidth-starved, low latency
	{BandwidthGBps: 400, LatencyNs: 5000}, // latency-dominated
}

var testPayloads = []float64{4096, 12345, 1 << 20}

// relDiff is the symmetric relative difference used throughout.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

// TestAnalyticMatchesReplayExact pins the analytic cost model against the
// brute-force event-driven replay on every (topology, spec, payload) cell
// for the collectives whose formulas claim exactness: ring all-reduce and
// all-to-all everywhere, tree all-reduce on every healthy topology, halo
// exchange on the torus. Tolerance is float roundoff only.
func TestAnalyticMatchesReplayExact(t *testing.T) {
	for _, spec := range testSpecs {
		for _, tp := range testTopologies(t, spec) {
			c := NewComm(tp)
			for _, op := range []Op{AllReduceRing, AllReduceTree, Halo, AllToAll} {
				if op == Halo {
					if _, ok := tp.(*Torus); !ok {
						continue // pinned separately with a measured tolerance
					}
				}
				for _, bytes := range testPayloads {
					name := fmt.Sprintf("%s/%s/bw%g/%gB", tp.Name(), op, spec.BandwidthGBps, bytes)
					an, err := c.AnalyticNs(op, bytes)
					if err != nil {
						t.Fatalf("%s: analytic: %v", name, err)
					}
					re, err := c.Replay(op, bytes)
					if err != nil {
						t.Fatalf("%s: replay: %v", name, err)
					}
					if re.Ns <= 0 || an <= 0 {
						t.Fatalf("%s: degenerate cost analytic=%g replay=%g", name, an, re.Ns)
					}
					if d := relDiff(an, re.Ns); d > 1e-9 {
						t.Errorf("%s: analytic %g vs replay %g (rel %.3g)", name, an, re.Ns, d)
					}
				}
			}
		}
	}
}

// TestAnalyticHaloIndirectPinned pins the halo-exchange merge formula on
// the indirect topologies. Unlike the torus (proven exact, loads of 1),
// exactness here is measured, not derived: every shifted grid row lands
// its leaf/group crossings on the shared links simultaneously across the
// whole test matrix, so the pin sits at float roundoff. Widening it means
// the model drifted from the replay — investigate before loosening.
func TestAnalyticHaloIndirectPinned(t *testing.T) {
	const pinned = 1e-9
	worst := 0.0
	var worstName string
	for _, spec := range testSpecs {
		for _, tp := range testTopologies(t, spec) {
			if _, ok := tp.(*Torus); ok {
				continue
			}
			c := NewComm(tp)
			for _, bytes := range testPayloads {
				an, err := c.AnalyticNs(Halo, bytes)
				if err != nil {
					t.Fatal(err)
				}
				re, err := c.Replay(Halo, bytes)
				if err != nil {
					t.Fatal(err)
				}
				if d := relDiff(an, re.Ns); d > worst {
					worst = d
					worstName = fmt.Sprintf("%s/bw%g/%gB", tp.Name(), spec.BandwidthGBps, bytes)
				}
			}
		}
	}
	if worst > pinned {
		t.Errorf("halo merge-formula divergence %.3g at %s exceeds pinned %.3g", worst, worstName, pinned)
	}
	t.Logf("worst indirect-halo divergence %.4g at %s (pinned at %.3g)", worst, worstName, pinned)
}

// TestDegradedAnalyticMatchesReplay checks the degraded-path model, where
// the merge formula is documented as approximate: costs must still be
// finite, deterministic, and within a pinned envelope of the replay, and
// degrading must never beat the healthy fabric on the same op.
func TestDegradedAnalyticMatchesReplay(t *testing.T) {
	const pinned = 0.35
	spec := DefaultLinkSpec()
	cases := []struct {
		tp     Topology
		failed []int
	}{}
	tor, err := NewTorus(4, 3, 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		tp     Topology
		failed []int
	}{tor, []int{1, 7, 13}})
	ft, err := NewFatTree(24, 8, 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		tp     Topology
		failed []int
	}{ft, []int{0, 5, 9, 17}})
	df, err := NewDragonfly(24, 4, spec)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		tp     Topology
		failed []int
	}{df, []int{2, 3, 11}})

	for _, tc := range cases {
		healthy := NewComm(tc.tp)
		degraded, err := NewDegradedComm(tc.tp, tc.failed)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []Op{AllReduceRing, AllReduceTree, Halo, AllToAll} {
			name := fmt.Sprintf("%s/%s", tc.tp.Name(), op)
			an, err := degraded.AnalyticNs(op, 1<<20)
			if err != nil {
				t.Fatalf("%s: analytic: %v", name, err)
			}
			an2, err := degraded.AnalyticNs(op, 1<<20)
			if err != nil || an2 != an {
				t.Fatalf("%s: analytic not deterministic: %g vs %g (%v)", name, an, an2, err)
			}
			re, err := degraded.Replay(op, 1<<20)
			if err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			if d := relDiff(an, re.Ns); d > pinned {
				t.Errorf("%s: degraded analytic %g vs replay %g (rel %.3g > %.3g)", name, an, re.Ns, d, pinned)
			}
			// The ring is the only op whose round count shrinks with
			// participants; for the others fewer-but-rerouted messages must
			// not come out faster than healthy by more than roundoff.
			if op != AllReduceRing {
				hn, err := healthy.AnalyticNs(op, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				if op == AllToAll || op == Halo {
					continue // fewer participants legitimately shrink these too
				}
				if an < hn*(1-1e-9) {
					t.Errorf("%s: degraded %g beats healthy %g", name, an, hn)
				}
			}
		}
	}
}

// TestReplayDeterministic: two replays of the same collective are
// bit-identical.
func TestReplayDeterministic(t *testing.T) {
	spec := DefaultLinkSpec()
	tor, err := NewTorus(4, 4, 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComm(tor)
	for _, op := range []Op{AllReduceRing, AllReduceTree, Halo, AllToAll} {
		a, err := c.Replay(op, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Replay(op, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: replay not deterministic: %+v vs %+v", op, a, b)
		}
	}
}

// TestIdealFabricIsFree: the degenerate ideal fabric prices every
// collective at zero in both models — the property the §V-F reproduction
// rests on.
func TestIdealFabricIsFree(t *testing.T) {
	for _, tp := range testTopologies(t, IdealLinkSpec()) {
		c := NewComm(tp)
		for _, op := range []Op{AllReduceRing, AllReduceTree, Halo, AllToAll} {
			an, err := c.AnalyticNs(op, 1<<24)
			if err != nil {
				t.Fatal(err)
			}
			re, err := c.Replay(op, 1<<24)
			if err != nil {
				t.Fatal(err)
			}
			if an != 0 || re.Ns != 0 {
				t.Errorf("%s/%s: ideal fabric not free: analytic=%g replay=%g", tp.Name(), op, an, re.Ns)
			}
		}
	}
}

// TestAnalyticAllocsScaleWithRounds pins the allocation profile of the
// analytic pricing on a healthy 1,000-node communicator: a fixed handful
// per round (its message slice) plus per-call scratch — never one per
// message (a round here carries up to 1,000).
func TestAnalyticAllocsScaleWithRounds(t *testing.T) {
	for _, kind := range Kinds() {
		tp, err := New(kind, 1000, DefaultLinkSpec())
		if err != nil {
			t.Fatal(err)
		}
		c := NewComm(tp)
		for _, op := range []Op{Halo, AllReduceRing, AllReduceTree} {
			rounds := len(c.rounds(op))
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := c.AnalyticNs(op, 4096); err != nil {
					t.Fatal(err)
				}
			})
			// Two per round covers the message slice and the broadcast
			// mirror; 16 covers loads, scratch growth and result slices.
			if limit := float64(2*rounds + 16); allocs > limit {
				t.Errorf("%s %s: %v allocs per call over %d rounds, want <= %v", kind, op, allocs, rounds, limit)
			}
		}
	}
}
