package exp

// Golden regression snapshot of the fabric scaling experiment: the full
// (topology, mode, kernel, nodes) efficiency table and the whole-node
// resilience surface, pinned to float tolerance. The values chain the
// detailed node simulation (sustained TFLOP/s), the workload-derived
// message sizes and the analytic collective cost model, so any drift in
// those layers shows up here first. If a deliberate model change moves a
// number, regenerate the snapshot in the same commit and say why.

import (
	"math"
	"testing"
)

type goldenScalingKey struct {
	topology string
	mode     string
	kernel   string
	nodes    int
}

var goldenScalingEff = map[goldenScalingKey]float64{
	{"torus", "strong", "MaxFlops", 1}:          1,
	{"torus", "strong", "MaxFlops", 50}:         0.022007304893518,
	{"torus", "strong", "MaxFlops", 1000}:       0.000374901476471408,
	{"torus", "strong", "MaxFlops", 20000}:      6.40890586751575e-06,
	{"torus", "strong", "MaxFlops", 100000}:     7.3913348055198e-07,
	{"torus", "strong", "CoMD", 1}:              1,
	{"torus", "strong", "CoMD", 50}:             0.609823438147659,
	{"torus", "strong", "CoMD", 1000}:           0.32811660501347,
	{"torus", "strong", "CoMD", 20000}:          0.0422640192520759,
	{"torus", "strong", "CoMD", 100000}:         0.00614854683713765,
	{"torus", "strong", "HPGMG", 1}:             1,
	{"torus", "strong", "HPGMG", 50}:            0.723841496614778,
	{"torus", "strong", "HPGMG", 1000}:          0.476925475476743,
	{"torus", "strong", "HPGMG", 20000}:         0.136220196304504,
	{"torus", "strong", "HPGMG", 100000}:        0.0277661425371661,
	{"torus", "weak", "MaxFlops", 1}:            1,
	{"torus", "weak", "MaxFlops", 50}:           0.52943971950814,
	{"torus", "weak", "MaxFlops", 1000}:         0.272749529395449,
	{"torus", "weak", "MaxFlops", 20000}:        0.11361578773062,
	{"torus", "weak", "MaxFlops", 100000}:       0.0688262223957051,
	{"torus", "weak", "CoMD", 1}:                1,
	{"torus", "weak", "CoMD", 50}:               0.85322390122264,
	{"torus", "weak", "CoMD", 1000}:             0.853080038275863,
	{"torus", "weak", "CoMD", 20000}:            0.852664706590255,
	{"torus", "weak", "CoMD", 100000}:           0.852201928864311,
	{"torus", "weak", "HPGMG", 1}:               1,
	{"torus", "weak", "HPGMG", 50}:              0.906424628174562,
	{"torus", "weak", "HPGMG", 1000}:            0.906392687904499,
	{"torus", "weak", "HPGMG", 20000}:           0.906300428656426,
	{"torus", "weak", "HPGMG", 100000}:          0.906197546265313,
	{"fat-tree", "strong", "MaxFlops", 1}:       1,
	{"fat-tree", "strong", "MaxFlops", 50}:      0.0165967913319124,
	{"fat-tree", "strong", "MaxFlops", 1000}:    0.000268910845609412,
	{"fat-tree", "strong", "MaxFlops", 20000}:   8.81302791648896e-06,
	{"fat-tree", "strong", "MaxFlops", 100000}:  1.54903195299807e-06,
	{"fat-tree", "strong", "CoMD", 1}:           1,
	{"fat-tree", "strong", "CoMD", 50}:          0.439300983600666,
	{"fat-tree", "strong", "CoMD", 1000}:        0.176386913871899,
	{"fat-tree", "strong", "CoMD", 20000}:       0.03541450461105,
	{"fat-tree", "strong", "CoMD", 100000}:      0.00953076619339314,
	{"fat-tree", "strong", "HPGMG", 1}:          1,
	{"fat-tree", "strong", "HPGMG", 50}:         0.567411976618417,
	{"fat-tree", "strong", "HPGMG", 1000}:       0.278297857381827,
	{"fat-tree", "strong", "HPGMG", 20000}:      0.089145999116246,
	{"fat-tree", "strong", "HPGMG", 100000}:     0.033251176333094,
	{"fat-tree", "weak", "MaxFlops", 1}:         1,
	{"fat-tree", "weak", "MaxFlops", 50}:        0.457654969271797,
	{"fat-tree", "weak", "MaxFlops", 1000}:      0.211967489202915,
	{"fat-tree", "weak", "MaxFlops", 20000}:     0.14984934903076,
	{"fat-tree", "weak", "MaxFlops", 100000}:    0.134126742134612,
	{"fat-tree", "weak", "CoMD", 1}:             1,
	{"fat-tree", "weak", "CoMD", 50}:            0.744056078486298,
	{"fat-tree", "weak", "CoMD", 1000}:          0.706534541836188,
	{"fat-tree", "weak", "CoMD", 20000}:         0.692402351709636,
	{"fat-tree", "weak", "CoMD", 100000}:        0.684227665315374,
	{"fat-tree", "weak", "HPGMG", 1}:            1,
	{"fat-tree", "weak", "HPGMG", 50}:           0.828872328060124,
	{"fat-tree", "weak", "HPGMG", 1000}:         0.800523625465694,
	{"fat-tree", "weak", "HPGMG", 20000}:        0.789620579407439,
	{"fat-tree", "weak", "HPGMG", 100000}:       0.783229556872276,
	{"dragonfly", "strong", "MaxFlops", 1}:      1,
	{"dragonfly", "strong", "MaxFlops", 50}:     0.0111260799637752,
	{"dragonfly", "strong", "MaxFlops", 1000}:   0.000337423978899055,
	{"dragonfly", "strong", "MaxFlops", 20000}:  1.125113581955e-05,
	{"dragonfly", "strong", "MaxFlops", 100000}: 2.02522313208864e-06,
	{"dragonfly", "strong", "CoMD", 1}:          1,
	{"dragonfly", "strong", "CoMD", 50}:         0.227707825478164,
	{"dragonfly", "strong", "CoMD", 1000}:       0.0392288469396756,
	{"dragonfly", "strong", "CoMD", 20000}:      0.00525971094042903,
	{"dragonfly", "strong", "CoMD", 100000}:     0.00113852391375715,
	{"dragonfly", "strong", "HPGMG", 1}:         1,
	{"dragonfly", "strong", "HPGMG", 50}:        0.329959396779075,
	{"dragonfly", "strong", "HPGMG", 1000}:      0.0643781138060451,
	{"dragonfly", "strong", "HPGMG", 20000}:     0.00910882691947751,
	{"dragonfly", "strong", "HPGMG", 100000}:    0.00199151066972217,
	{"dragonfly", "weak", "MaxFlops", 1}:        1,
	{"dragonfly", "weak", "MaxFlops", 50}:       0.360025853092576,
	{"dragonfly", "weak", "MaxFlops", 1000}:     0.252357618627916,
	{"dragonfly", "weak", "MaxFlops", 20000}:    0.183690294150942,
	{"dragonfly", "weak", "MaxFlops", 100000}:   0.168414882669544,
	{"dragonfly", "weak", "CoMD", 1}:            1,
	{"dragonfly", "weak", "CoMD", 50}:           0.521634047940429,
	{"dragonfly", "weak", "CoMD", 1000}:         0.293518092985173,
	{"dragonfly", "weak", "CoMD", 20000}:        0.132756807414691,
	{"dragonfly", "weak", "CoMD", 100000}:       0.0539553504541115,
	{"dragonfly", "weak", "HPGMG", 1}:           1,
	{"dragonfly", "weak", "HPGMG", 50}:          0.644949655453591,
	{"dragonfly", "weak", "HPGMG", 1000}:        0.408994195969965,
	{"dragonfly", "weak", "HPGMG", 20000}:       0.20316562441706,
	{"dragonfly", "weak", "HPGMG", 100000}:      0.0867488154039722,
}

// goldenFabricRelPerf is the fabric-resilience surface on the 8x8x8 torus
// (CoMD weak scaling, seed 1) plus its steady-state expectation.
var (
	goldenFabricRelPerf = []float64{
		1,
		0.628966396332602,
		0.627728130660425,
		0.62649725407573,
		0.625251687035145,
		0.624020876627596,
		0.622786389690357,
		0.621537240879379,
		0.62030643732185,
	}
	goldenFabricExpected = 0.933455848096586
	goldenFabricBinary   = 0.820712861702505
)

func TestGoldenScalingEfficiency(t *testing.T) {
	r := Scaling()
	if len(r.Rows) != len(goldenScalingEff) {
		t.Fatalf("scaling experiment produced %d rows, golden has %d", len(r.Rows), len(goldenScalingEff))
	}
	for _, row := range r.Rows {
		key := goldenScalingKey{row.Topology, row.Mode, row.Kernel, row.Nodes}
		want, ok := goldenScalingEff[key]
		if !ok {
			t.Errorf("unexpected row %+v", key)
			continue
		}
		if d := math.Abs(row.Efficiency - want); d > 1e-12 {
			t.Errorf("%+v: efficiency drifted: got %.15g, golden %.15g (|d|=%g)", key, row.Efficiency, want, d)
		}
		// The delivered throughput must stay consistent with the
		// efficiency and the §V-F arithmetic it discounts.
		if d := math.Abs(row.DeliveredEF - row.IdealEF*row.Efficiency); d > 1e-9 {
			t.Errorf("%+v: delivered %.15g inconsistent with ideal*eff %.15g", key, row.DeliveredEF, row.IdealEF*row.Efficiency)
		}
	}
}

func TestGoldenFabricResilience(t *testing.T) {
	r := FabricResilience()
	if len(r.RelPerf) != len(goldenFabricRelPerf) {
		t.Fatalf("surface has %d points, golden %d", len(r.RelPerf), len(goldenFabricRelPerf))
	}
	for k := range r.RelPerf {
		if d := math.Abs(r.RelPerf[k] - goldenFabricRelPerf[k]); d > 1e-12 {
			t.Errorf("rel[%d] drifted: got %.15g, golden %.15g", k, r.RelPerf[k], goldenFabricRelPerf[k])
		}
	}
	if d := math.Abs(r.Degraded.ExpectedRelPerf - goldenFabricExpected); d > 1e-12 {
		t.Errorf("expected rel perf drifted: got %.15g, golden %.15g", r.Degraded.ExpectedRelPerf, goldenFabricExpected)
	}
	if d := math.Abs(r.Degraded.BinaryRelPerf - goldenFabricBinary); d > 1e-12 {
		t.Errorf("binary rel perf drifted: got %.15g, golden %.15g", r.Degraded.BinaryRelPerf, goldenFabricBinary)
	}
}
