package fabric

import (
	"math"
	"testing"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/workload"
)

// nodeRate is the sustained per-node rate the scaling tests share: one
// detailed node simulation of the paper's best-mean EHP configuration.
func nodeRate(t *testing.T, k workload.Kernel) float64 {
	t.Helper()
	r := core.Simulate(arch.BestMeanEHP(), k, core.Options{})
	if r.Perf.TFLOPs <= 0 {
		t.Fatalf("node simulation returned %v TFLOP/s", r.Perf.TFLOPs)
	}
	return r.Perf.TFLOPs
}

// TestIdealFabricReproducesPaperProjection pins the degenerate case the
// whole scaling model is anchored on: with an infinite-bandwidth
// zero-latency fabric, efficiency is exactly 1 and the delivered
// throughput reduces to the paper's §V-F arithmetic — one node's sustained
// TFLOP/s times the node count (core.ProjectSystem) — to float tolerance,
// on every topology kind.
func TestIdealFabricReproducesPaperProjection(t *testing.T) {
	k := workload.CoMD()
	rate := nodeRate(t, k)
	r := core.Simulate(arch.BestMeanEHP(), k, core.Options{})
	for _, kind := range Kinds() {
		for _, p := range []int{8, 64, 512} {
			tp, err := New(kind, p, IdealLinkSpec())
			if err != nil {
				t.Fatal(err)
			}
			pt, err := Evaluate(NewComm(tp), k, rate, Weak)
			if err != nil {
				t.Fatal(err)
			}
			if pt.Efficiency != 1 {
				t.Errorf("%s p=%d: ideal-fabric efficiency %v, want exactly 1", kind, p, pt.Efficiency)
			}
			proj := core.ProjectSystem(r, p)
			got := pt.DeliveredTFLOPs / 1e6
			if d := math.Abs(got-proj.ExaFLOPs) / proj.ExaFLOPs; d > 1e-12 {
				t.Errorf("%s p=%d: delivered %v EF vs §V-F projection %v EF (rel %.3g)", kind, p, got, proj.ExaFLOPs, d)
			}
		}
	}
}

// TestFiniteFabricDivergesFromProjection is the other half of the anchor:
// under the finite-budget reference fabric the same workload must lose a
// measurable amount to communication — the gap the §V-F arithmetic cannot
// see.
func TestFiniteFabricDivergesFromProjection(t *testing.T) {
	k := workload.CoMD()
	rate := nodeRate(t, k)
	for _, kind := range Kinds() {
		tp, err := New(kind, 512, DefaultLinkSpec())
		if err != nil {
			t.Fatal(err)
		}
		pt, err := Evaluate(NewComm(tp), k, rate, Weak)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Efficiency >= 0.999 {
			t.Errorf("%s: efficiency %v indistinguishable from the ideal projection", kind, pt.Efficiency)
		}
		if pt.Efficiency <= 0 || pt.Efficiency >= 1 {
			t.Errorf("%s: efficiency %v outside (0,1)", kind, pt.Efficiency)
		}
		ideal := rate * 512
		if pt.DeliveredTFLOPs >= ideal {
			t.Errorf("%s: delivered %v not below ideal %v", kind, pt.DeliveredTFLOPs, ideal)
		}
	}
}

// TestCurvesMatchPerPointEvaluate: the shared-communicator sweep is
// bit-identical to evaluating every (series, size) point on its own fresh
// topology.
func TestCurvesMatchPerPointEvaluate(t *testing.T) {
	sizes := []int{1, 2, 8, 27, 64, 360}
	var series []Series
	for _, mode := range []Mode{Strong, Weak} {
		for _, k := range []workload.Kernel{workload.MaxFlops(), workload.CoMD(), workload.HPGMG()} {
			series = append(series, Series{Kernel: k, NodeTFLOPs: nodeRate(t, k), Mode: mode})
		}
	}
	for _, kind := range Kinds() {
		curves, err := Curves(kind, DefaultLinkSpec(), series, sizes)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range series {
			for j, p := range sizes {
				tp, err := New(kind, p, DefaultLinkSpec())
				if err != nil {
					t.Fatal(err)
				}
				want, err := Evaluate(NewComm(tp), s.Kernel, s.NodeTFLOPs, s.Mode)
				if err != nil {
					t.Fatal(err)
				}
				if curves[i][j] != want {
					t.Fatalf("%s %s/%s p=%d: Curves %+v, Evaluate %+v", kind, s.Kernel.Name, s.Mode, p, curves[i][j], want)
				}
			}
		}
		if curves[0][0].Efficiency != 1 {
			t.Errorf("%s: single node must be perfectly efficient, got %v", kind, curves[0][0].Efficiency)
		}
	}
	if _, err := Curves("torus", DefaultLinkSpec(), []Series{{Kernel: workload.CoMD()}}, sizes); err == nil {
		t.Error("a zero node rate must be rejected")
	}
}

// TestStrongScalingDegradesFasterThanWeak: with a fixed total problem the
// per-node compute shrinks while latency terms do not, so strong-scaling
// efficiency must fall below weak-scaling efficiency at scale and decrease
// monotonically with node count.
func TestStrongScalingDegradesFasterThanWeak(t *testing.T) {
	k := workload.CoMD()
	rate := nodeRate(t, k)
	sizes := []int{8, 64, 512}
	curves, err := Curves("torus", DefaultLinkSpec(), []Series{{k, rate, Strong}, {k, rate, Weak}}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	strong, weak := curves[0], curves[1]
	for i := 1; i < len(strong); i++ {
		if strong[i].Efficiency >= strong[i-1].Efficiency {
			t.Errorf("strong efficiency not decreasing: %v then %v", strong[i-1].Efficiency, strong[i].Efficiency)
		}
	}
	last := len(sizes) - 1
	if strong[last].Efficiency >= weak[last].Efficiency {
		t.Errorf("at p=%d strong efficiency %v should trail weak %v", sizes[last], strong[last].Efficiency, weak[last].Efficiency)
	}
}

// TestProfilePayloads sanity-checks the workload-derived message sizes.
func TestProfilePayloads(t *testing.T) {
	if hb := Profile(workload.MaxFlops(), 64, Weak).HaloBytes; hb != 0 {
		t.Errorf("compute-intensive kernel has halo bytes %v", hb)
	}
	weak := Profile(workload.CoMD(), 64, Weak)
	strong := Profile(workload.CoMD(), 64, Strong)
	if weak.LocalBytes != workload.CoMD().FootprintGB*1e9 {
		t.Errorf("weak local bytes %v", weak.LocalBytes)
	}
	if strong.LocalBytes*64 != weak.LocalBytes {
		t.Errorf("strong local bytes %v not footprint/64", strong.LocalBytes)
	}
	if weak.HaloBytes <= strong.HaloBytes || strong.HaloBytes <= 0 {
		t.Errorf("halo bytes weak %v strong %v", weak.HaloBytes, strong.HaloBytes)
	}
	if weak.ReduceBytes != reduceBytes {
		t.Errorf("reduce bytes %v", weak.ReduceBytes)
	}
}
