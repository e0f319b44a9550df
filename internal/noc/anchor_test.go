package noc

import (
	"math"
	"testing"

	"ena/internal/arch"
	"ena/internal/units"
	"ena/internal/workload"
)

// TestAnchorNoCLittlesLaw checks the closed-loop NoC against Little's law,
// L = λW. Every token always has exactly one request in flight until the
// run drains, so the time-averaged population L is Tokens; λ is the
// delivered line rate and W the mean request latency. The check is
// independent of the model's own past output: it ties the throughput the
// simulator reports (SustainedGBps, rescaled to machine size) to the latency
// it reports (MeanLatencyNs) through the one quantity the test controls.
//
// The tolerance is 3%, and it is one-sided in effect. During the final
// drain tokens retire without reissuing, so fewer than Tokens requests are
// in flight while the clock still runs. With Requests = 40×Tokens the drain
// is a few percent of the simulated horizon, and λW measures 0.971–0.989 ×
// Tokens over all 24 rows at seed 1. A larger gap means the reported
// throughput and latency no longer describe the same run. Fix the model,
// never the bound.
func TestAnchorNoCLittlesLaw(t *testing.T) {
	const tol = 0.03
	cfg := arch.BestMeanEHP()
	for _, k := range workload.Suite() {
		realTokens := float64(cfg.TotalCUs()) * k.MLPPerCU
		for _, tokens := range []int{64, 1024, int(realTokens)} {
			r := Simulate(cfg, k, Options{Seed: 1, Tokens: tokens, Requests: 40 * tokens})
			// SustainedGBps is scaled back to machine size; undo that
			// scale to get the simulated line rate per ns.
			scale := math.Min(1, float64(tokens)/realTokens)
			linesPerNs := r.SustainedGBps * scale * units.GB / units.CacheLineBytes / 1e9
			l := linesPerNs * r.MeanLatencyNs
			ratio := l / float64(tokens)
			t.Logf("%-8s tokens=%5d λ=%.4f lines/ns W=%.1f ns λW/tokens=%.4f", k.Name, tokens, linesPerNs, r.MeanLatencyNs, ratio)
			if math.Abs(ratio-1) > tol {
				t.Errorf("%s tokens=%d: λW = %.1f, want %d within %.0f%%", k.Name, tokens, l, tokens, tol*100)
			}
		}
	}
}
