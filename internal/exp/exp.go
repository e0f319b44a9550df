// Package exp contains one harness per table and figure of the paper's
// evaluation (§IV-§VI), each regenerating the same rows/series the paper
// reports, plus the extension ablations DESIGN.md lists. Every harness
// returns a typed result with a Render method producing the paper-style
// text; cmd/enasim and the root bench suite drive them.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ena/internal/arch"
	"ena/internal/dse"
	"ena/internal/powopt"
	"ena/internal/workload"
)

// Result is the common interface of all experiment outputs.
type Result interface {
	// Render returns the experiment's data formatted as aligned text,
	// mirroring the paper's rows/series.
	Render() string
}

// Experiment is a registry entry.
type Experiment struct {
	ID    string
	Title string
	Run   func() Result
}

// Experiments lists every reproducible artifact in paper order, followed by
// the extensions.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: application characterization", Run: func() Result { return Table1() }},
		{ID: "fig4", Title: "Fig. 4: MaxFlops vs bandwidth/frequency/CUs", Run: func() Result { return Figure4() }},
		{ID: "fig5", Title: "Fig. 5: CoMD vs bandwidth/frequency/CUs", Run: func() Result { return Figure5() }},
		{ID: "fig6", Title: "Fig. 6: LULESH vs bandwidth/frequency/CUs", Run: func() Result { return Figure6() }},
		{ID: "fig7", Title: "Fig. 7: out-of-chiplet traffic and chiplet overhead", Run: func() Result { return Figure7() }},
		{ID: "fig8", Title: "Fig. 8: in-package DRAM miss-rate impact", Run: func() Result { return Figure8() }},
		{ID: "fig9", Title: "Fig. 9: external-memory configuration power", Run: func() Result { return Figure9() }},
		{ID: "fig10", Title: "Fig. 10: peak in-package 3D-DRAM temperature", Run: func() Result { return Figure10() }},
		{ID: "fig11", Title: "Fig. 11: bottom DRAM-die heat map (SNAP)", Run: func() Result { return Figure11() }},
		{ID: "fig12", Title: "Fig. 12: power savings from optimizations", Run: func() Result { return Figure12() }},
		{ID: "fig13", Title: "Fig. 13: energy-efficiency benefit of optimizations", Run: func() Result { return Figure13() }},
		{ID: "fig14", Title: "Fig. 14: MaxFlops exascale projection", Run: func() Result { return Figure14() }},
		{ID: "table2", Title: "Table II: dynamic resource reconfiguration benefit", Run: func() Result { return Table2() }},
		{ID: "ablation-noc", Title: "Ablation: chiplet-network sensitivity", Run: func() Result { return AblationNoC() }},
		{ID: "ablation-mem", Title: "Ablation: memory-management policies", Run: func() Result { return AblationMemPolicy() }},
		{ID: "ablation-thermal", Title: "Ablation: thermally constrained DSE", Run: func() Result { return ThermalDSE() }},
		{ID: "ablation-dram", Title: "Ablation: bank-level DRAM / refresh threshold", Run: func() Result { return AblationDRAM() }},
		{ID: "ablation-extnet", Title: "Ablation: external-network redundancy (§II-B2)", Run: func() Result { return AblationExtNet() }},
		{ID: "ablation-yield", Title: "Ablation: chiplet vs monolithic yield/cost (§II-A2)", Run: func() Result { return Yield() }},
		{ID: "apps", Title: "Extension: whole-application outcomes (§IV fn. 3)", Run: func() Result { return Apps() }},
		{ID: "migration", Title: "Extension: hot-page migration runtime", Run: func() Result { return Migration() }},
		{ID: "reconfig", Title: "Extension: dynamic reconfiguration runtime (§VI)", Run: func() Result { return Reconfig() }},
		{ID: "ras", Title: "Extension: RAS / MTTF / checkpointing", Run: func() Result { return RAS() }},
		{ID: "resilience", Title: "Extension: performance under progressive component failure", Run: func() Result { return Resilience() }},
		{ID: "scaling", Title: "Extension: strong/weak scaling on the explicit inter-node fabric", Run: func() Result { return Scaling() }},
		{ID: "inference", Title: "Extension: DL inference serving (batch sweep, latency at target QPS)", Run: func() Result { return Inference() }},
		{ID: "fabric-resilience", Title: "Extension: whole-node failures rerouted through the fabric", Run: func() Result { return FabricResilience() }},
		{ID: "dse-efficiency", Title: "Extension: DSE sample efficiency (surrogate vs exhaustive vs random)", Run: func() Result { return DSEEfficiency() }},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// Shared inputs: the memoized design-space explorations used by several
// figures (Fig. 10 needs per-app bests; Fig. 13 and Table II need both the
// baseline and optimized sweeps).
var (
	dseOnce     sync.Once
	dseBase     dse.Outcome
	dseOptimzed dse.Outcome
)

func explorations() (base, opt dse.Outcome) {
	dseOnce.Do(func() {
		ks := workload.Suite()
		dseBase = dse.Explore(dse.DefaultSpace(), ks, arch.NodePowerBudgetW, 0)
		dseOptimzed = dse.Explore(dse.DefaultSpace(), ks, arch.NodePowerBudgetW, powopt.All)
	})
	return dseBase, dseOptimzed
}

// parallelFor calls fn(i) for every i in [0, n) on at most workers
// goroutines (at least one) and returns when all calls have finished. Each
// call writes only its own result slot i, so the output is positional and
// bit-identical for any worker count as long as fn(i) is a pure function of
// i — which holds for the seeded simulations the harnesses fan out.
func parallelFor(n, workers int, fn func(i int)) {
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// table is a minimal aligned-text table builder shared by the harnesses.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// fmtPct renders a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// sortedKeys returns a map's keys in sorted order (stable rendering).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
