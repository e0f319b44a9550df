package exp

import (
	"fmt"
	"runtime"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/dse"
	"ena/internal/thermal"
	"ena/internal/workload"
)

// ThermalDSEResult is the thermally constrained design-space exploration:
// §V-D checks feasibility of a handful of points; the linear superposition
// model makes it cheap enough to screen the entire §V sweep against the
// 85 C DRAM limit.
type ThermalDSEResult struct {
	PointsTotal       int
	PowerFeasible     int
	ThermallyRejected int // power-feasible but over the DRAM limit
	BestMean          dse.Point
	BestMeanBoth      dse.Point // best-mean under power AND thermal limits
	HottestPoint      dse.Point
	HottestTempC      float64
	HottestKernel     string

	// A mid-range cooler (25% weaker convection) shows the §V-D caveat:
	// "more advanced cooling solutions may become necessary".
	WeakCoolerRejected int
	WeakCoolerBestMean dse.Point
}

// Render implements Result.
func (r ThermalDSEResult) Render() string {
	s := "Ablation: thermally constrained design-space exploration (85 C DRAM limit)\n"
	s += fmt.Sprintf("  %d points; %d power-feasible; %d of those thermally rejected\n",
		r.PointsTotal, r.PowerFeasible, r.ThermallyRejected)
	s += fmt.Sprintf("  best-mean (power only):      %s\n", r.BestMean)
	s += fmt.Sprintf("  best-mean (power + thermal): %s\n", r.BestMeanBoth)
	s += fmt.Sprintf("  hottest point: %s running %s at %.1f C\n",
		r.HottestPoint, r.HottestKernel, r.HottestTempC)
	s += fmt.Sprintf("  with a 25%% weaker cooler: %d points rejected; best-mean %s\n",
		r.WeakCoolerRejected, r.WeakCoolerBestMean)
	return s
}

// ThermalDSE screens every power-feasible design point against the DRAM
// temperature limit using the linear thermal model. The points are screened
// on a GOMAXPROCS-bounded pool, each into its own slot; a serial pass then
// reduces the slots in point order, so ties resolve as a serial scan would.
func ThermalDSE() ThermalDSEResult {
	base, _ := explorations()
	lm, err := thermal.NewLinearModel(thermal.EHPFloorplan(), thermal.DefaultAmbientC, thermal.DefaultParams())
	if err != nil {
		panic(fmt.Sprintf("exp: linear thermal model: %v", err))
	}
	weakPrm := thermal.DefaultParams()
	weakPrm.HSink *= 0.75
	weak, err := thermal.NewLinearModel(thermal.EHPFloorplan(), thermal.DefaultAmbientC, weakPrm)
	if err != nil {
		panic(fmt.Sprintf("exp: weak-cooler model: %v", err))
	}
	ks := workload.Suite()

	// screen is one power-feasible point's verdict: whether every kernel
	// stays under the limit with each cooler, and its hottest kernel (the
	// first to reach the point's peak).
	type screen struct {
		thermalOK, weakOK bool
		peak              float64
		kernel            string
	}
	screens := make([]screen, len(base.Evals))
	parallelFor(len(base.Evals), runtime.GOMAXPROCS(0), func(i int) {
		e := base.Evals[i]
		if !e.FeasibleAll {
			return
		}
		cfg := e.Point.Config()
		sc := screen{thermalOK: true, weakOK: true}
		for _, k := range ks {
			r := core.Simulate(cfg, k, core.Options{})
			pa := AssignThermalPower(cfg, r)
			peak, err := lm.PeakDRAMTempC(pa)
			if err != nil {
				panic(fmt.Sprintf("exp: thermal eval: %v", err))
			}
			if peak > sc.peak {
				sc.peak, sc.kernel = peak, k.Name
			}
			if peak >= thermal.DRAMTempLimitC {
				sc.thermalOK = false
			}
			wpeak, err := weak.PeakDRAMTempC(pa)
			if err != nil {
				panic(fmt.Sprintf("exp: weak-cooler eval: %v", err))
			}
			if wpeak >= thermal.DRAMTempLimitC {
				sc.weakOK = false
			}
		}
		screens[i] = sc
	})

	out := ThermalDSEResult{
		PointsTotal: len(base.Evals),
		BestMean:    base.BestMean.Point,
	}
	bestBothIdx, bestWeakIdx := -1, -1
	for i, e := range base.Evals {
		if !e.FeasibleAll {
			continue
		}
		out.PowerFeasible++
		sc := screens[i]
		if sc.peak > out.HottestTempC {
			out.HottestTempC = sc.peak
			out.HottestPoint = e.Point
			out.HottestKernel = sc.kernel
		}
		inMeanRegion := e.Point.CUs <= arch.ProvisionedCUs
		if !sc.thermalOK {
			out.ThermallyRejected++
		} else if inMeanRegion && (bestBothIdx < 0 || e.MeanScore > base.Evals[bestBothIdx].MeanScore) {
			bestBothIdx = i
		}
		if !sc.weakOK {
			out.WeakCoolerRejected++
		} else if inMeanRegion && (bestWeakIdx < 0 || e.MeanScore > base.Evals[bestWeakIdx].MeanScore) {
			bestWeakIdx = i
		}
	}
	if bestBothIdx >= 0 {
		out.BestMeanBoth = base.Evals[bestBothIdx].Point
	}
	if bestWeakIdx >= 0 {
		out.WeakCoolerBestMean = base.Evals[bestWeakIdx].Point
	}
	return out
}
