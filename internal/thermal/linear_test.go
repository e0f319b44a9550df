package thermal

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The linear model takes ~18 full solves to build; share it across tests.
var (
	lmOnce sync.Once
	lm     *LinearModel
	lmErr  error
)

func linearModel(t *testing.T) *LinearModel {
	t.Helper()
	lmOnce.Do(func() {
		lm, lmErr = NewLinearModel(EHPFloorplan(), DefaultAmbientC, DefaultParams())
	})
	if lmErr != nil {
		t.Fatal(lmErr)
	}
	return lm
}

func TestLinearModelMatchesFullSolve(t *testing.T) {
	m := linearModel(t)
	fp := EHPFloorplan()
	cases := []PowerAssignment{
		uniformAssignment(fp, 10, 3, 8, 9),
		uniformAssignment(fp, 5, 1, 12, 4),
		uniformAssignment(fp, 14, 0.5, 2, 15),
	}
	// A deliberately non-uniform case.
	skew := uniformAssignment(fp, 6, 2, 8, 8)
	skew.GPUChipletW[0] = 18
	skew.HBMStackW[7] = 6
	cases = append(cases, skew)

	for i, pa := range cases {
		want, err := Solve(fp, pa, DefaultAmbientC)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.PeakDRAMTempC(pa)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got - want.PeakDRAMTempC()); d > 0.3 {
			t.Errorf("case %d: linear %v vs full %v (d=%.3f)", i, got, want.PeakDRAMTempC(), d)
		}
	}
}

func TestLinearModelZeroPower(t *testing.T) {
	m := linearModel(t)
	fp := EHPFloorplan()
	got, err := m.PeakDRAMTempC(uniformAssignment(fp, 0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-DefaultAmbientC) > 0.2 {
		t.Errorf("zero power peak = %v", got)
	}
}

func TestLinearModelShapeMismatch(t *testing.T) {
	m := linearModel(t)
	if _, err := m.PeakDRAMTempC(PowerAssignment{}); err != ErrBadAssignment {
		t.Errorf("expected ErrBadAssignment, got %v", err)
	}
}

func TestLinearModelSuperposition(t *testing.T) {
	// f(a+b) = f(a)+f(b)-ambient for peak taken at the same cell; verify
	// with proportional scaling where the identity is exact.
	m := linearModel(t)
	fp := EHPFloorplan()
	one, err := m.PeakDRAMTempC(uniformAssignment(fp, 4, 1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	three, err := m.PeakDRAMTempC(uniformAssignment(fp, 12, 3, 12, 12))
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs((three - DefaultAmbientC) - 3*(one-DefaultAmbientC)); d > 1e-6 {
		t.Errorf("scaling identity violated by %v", d)
	}
}

// oraclePeakDRAMTempC is the per-source superposition loop the packed table
// replaced: for each DRAM cell under a GPU stack, it sums the CPU and
// interposer responses, then each chiplet's GPU and HBM responses, reading
// one full-size response array per source.
func oraclePeakDRAMTempC(fp *Floorplan, ambientC float64, gpu, hbm [][]float64, cpu, ip []float64, p PowerAssignment) float64 {
	n := len(fp.GPU)
	peak := 0.0
	for l := 0; l < 4; l++ {
		for _, g := range fp.GPU {
			for y := g.Y0; y < g.Y1; y++ {
				for x := g.X0; x < g.X1; x++ {
					idx := l*NX*NY + y*NX + x
					t := cpu[idx]*p.CPUW + ip[idx]*p.InterposerW
					for i := 0; i < n; i++ {
						t += gpu[i][idx]*p.GPUChipletW[i] +
							hbm[i][idx]*p.HBMStackW[i]
					}
					if t > peak {
						peak = t
					}
				}
			}
		}
	}
	return ambientC + peak
}

// TestLinearModelMatchesPerSourceOracle: the packed response table gives
// bit-identical peaks to the per-source superposition loop on random
// non-uniform assignments, so packing changed no float operation.
func TestLinearModelMatchesPerSourceOracle(t *testing.T) {
	m := linearModel(t)
	fp := EHPFloorplan()
	gpu, hbm, cpu, ip, err := basisResponses(fp, DefaultAmbientC, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 200; c++ {
		pa := uniformAssignment(fp, 0, 0, 20*rng.Float64(), 15*rng.Float64())
		for i := range pa.GPUChipletW {
			pa.GPUChipletW[i] = 20 * rng.Float64()
			pa.HBMStackW[i] = 8 * rng.Float64()
		}
		got, err := m.PeakDRAMTempC(pa)
		if err != nil {
			t.Fatal(err)
		}
		if want := oraclePeakDRAMTempC(fp, DefaultAmbientC, gpu, hbm, cpu, ip, pa); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: table peak %v (%#x), per-source oracle %v (%#x)",
				c, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func BenchmarkLinearModelPeak(b *testing.B) {
	m, err := NewLinearModel(EHPFloorplan(), DefaultAmbientC, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	pa := uniformAssignment(EHPFloorplan(), 10, 3, 8, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PeakDRAMTempC(pa)
	}
}
