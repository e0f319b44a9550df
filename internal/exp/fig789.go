package exp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/memsys"
	"ena/internal/noc"
	"ena/internal/obs"
	"ena/internal/power"
	"ena/internal/workload"
)

// fig7Kernels are the three kernels the paper plots in Fig. 7.
var fig7Kernels = []string{"XSBench", "SNAP", "CoMD"}

// Fig7Result holds the chiplet-overhead experiment.
type Fig7Result struct {
	Rows []noc.Comparison
}

// Render implements Result.
func (r Fig7Result) Render() string {
	t := &table{header: []string{"kernel", "out-of-chiplet traffic", "EHP perf vs monolithic", "chiplet lat (ns)", "mono lat (ns)"}}
	for _, c := range r.Rows {
		t.addRow(c.Kernel, fmtPct(c.OutOfChiplet), fmtPct(c.PerfVsMonolith),
			fmt.Sprintf("%.0f", c.ChipletLatNs), fmt.Sprintf("%.0f", c.MonoLatNs))
	}
	return "Fig. 7: chiplet organization vs hypothetical monolithic EHP\n" + t.String()
}

// Figure7 runs the event-driven chiplet/monolithic comparison at the
// best-mean configuration (§V-A). Its six simulations come from fig7Sims,
// which AblationNoC reads too.
func Figure7() Fig7Result {
	cfg := arch.BestMeanEHP()
	ks := fig7KernelList()
	chiplet, mono := fig7Sims()
	out := Fig7Result{Rows: make([]noc.Comparison, len(ks))}
	for i, k := range ks {
		out.Rows[i] = noc.CompareResults(cfg, k, chiplet[i], mono[i])
	}
	return out
}

// fig7Seed seeds every Fig. 7 and NoC-ablation simulation.
const fig7Seed = 42

// fig7Memo holds Fig. 7's simulations for one observation scope.
var fig7Memo struct {
	mu            sync.Mutex
	scope         *obs.Scope
	chiplet, mono []noc.Result
}

// fig7Sims returns Fig. 7's six NoC simulations, indexed like fig7Kernels:
// each kernel's chiplet run on the best-mean EHP and its monolithic run.
// AblationNoC's unshifted-locality rows and its point-to-point SNAP row are
// the same runs, so both experiments read them from here instead of
// simulating twice. The memo lives as long as the observation scope
// (obs.Default): a new scope, as each enasim run installs, recomputes the
// runs, so a scope's metrics always count the simulations its experiments
// report. The six runs are independent and fan out as six pool items.
func fig7Sims() (chiplet, mono []noc.Result) {
	sc := obs.Default()
	fig7Memo.mu.Lock()
	defer fig7Memo.mu.Unlock()
	if fig7Memo.scope != sc {
		cfg := arch.BestMeanEHP()
		monoCfg := arch.Monolithic(cfg)
		ks := fig7KernelList()
		n := len(ks)
		res := make([]noc.Result, 2*n)
		parallelFor(len(res), runtime.GOMAXPROCS(0), func(i int) {
			c := cfg
			if i >= n {
				c = monoCfg
			}
			res[i] = noc.Simulate(c, ks[i%n], noc.Options{Seed: fig7Seed})
		})
		fig7Memo.scope, fig7Memo.chiplet, fig7Memo.mono = sc, res[:n], res[n:]
	}
	return fig7Memo.chiplet, fig7Memo.mono
}

// fig7KernelList resolves fig7Kernels.
func fig7KernelList() []workload.Kernel {
	ks := make([]workload.Kernel, len(fig7Kernels))
	for i, name := range fig7Kernels {
		k, err := workload.ByName(name)
		if err != nil {
			panic(err) // fig7Kernels is a fixed, known list
		}
		ks[i] = k
	}
	return ks
}

// Fig8MissRates is the swept external-service fraction (the paper plots
// 0..100%).
var Fig8MissRates = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// Fig8Result holds per-kernel normalized performance vs miss rate.
type Fig8Result struct {
	MissRates []float64
	Kernels   []string
	// Norm[i][j] is kernel i's performance at MissRates[j], normalized to
	// its zero-miss performance.
	Norm [][]float64
}

// Render implements Result.
func (r Fig8Result) Render() string {
	hdr := []string{"kernel"}
	for _, m := range r.MissRates {
		hdr = append(hdr, fmt.Sprintf("%.0f%%", m*100))
	}
	t := &table{header: hdr}
	for i, k := range r.Kernels {
		row := []string{k}
		for _, v := range r.Norm[i] {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.addRow(row...)
	}
	return "Fig. 8: perf normalized to perf with no in-package-DRAM misses\n" + t.String()
}

// Figure8 sweeps the fraction of requests serviced by external memory at the
// best-mean configuration (§V-B).
func Figure8() Fig8Result {
	cfg := arch.BestMeanEHP()
	out := Fig8Result{MissRates: Fig8MissRates}
	for _, k := range workload.Suite() {
		out.Kernels = append(out.Kernels, k.Name)
		row := make([]float64, len(Fig8MissRates))
		for j, m := range Fig8MissRates {
			row[j] = memsys.DegradationAtMiss(cfg, k, m)
		}
		out.Norm = append(out.Norm, row)
	}
	return out
}

// Fig9Config labels the two external-memory configurations of Fig. 9.
type Fig9Config string

// The two bars per kernel.
const (
	Fig9DRAMOnly Fig9Config = "3D DRAM only"
	Fig9Hybrid   Fig9Config = "3D DRAM + NVM"
)

// Fig9Row is one kernel's power breakdown under one configuration, grouped
// the way the paper's stacked bars are.
type Fig9Row struct {
	Kernel    string
	Config    Fig9Config
	Breakdown power.Breakdown

	SerDesStaticW float64
	ExtStaticW    float64
	SerDesDynW    float64
	ExtDynW       float64
	CUDynW        float64
	OtherW        float64
	TotalW        float64
}

// Fig9Result holds both configurations for all kernels.
type Fig9Result struct {
	Rows []Fig9Row
}

// Render implements Result.
func (r Fig9Result) Render() string {
	t := &table{header: []string{"kernel", "config", "SerDes(S)", "ExtMem(S)", "SerDes(D)", "ExtMem(D)", "CUs(D)", "Other", "Total"}}
	f := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	for _, row := range r.Rows {
		t.addRow(row.Kernel, string(row.Config), f(row.SerDesStaticW), f(row.ExtStaticW),
			f(row.SerDesDynW), f(row.ExtDynW), f(row.CUDynW), f(row.OtherW), f(row.TotalW))
	}
	var b strings.Builder
	b.WriteString("Fig. 9: ENA power (W) by external-memory configuration\n")
	b.WriteString(t.String())
	return b.String()
}

// Figure9 compares the DRAM-only external network against the hybrid
// DRAM+NVM network at equal capacity (§V-C), accounting each kernel's
// realistic external traffic under software management.
func Figure9() Fig9Result {
	base := arch.BestMeanEHP()
	hybrid := arch.WithHybridExternal(base)
	var out Fig9Result
	for _, k := range workload.Suite() {
		for _, cc := range []struct {
			cfg  *arch.NodeConfig
			name Fig9Config
		}{{base, Fig9DRAMOnly}, {hybrid, Fig9Hybrid}} {
			r := core.Simulate(cc.cfg, k, core.Options{
				UseAppExtTraffic: true,
				Policy:           memsys.SoftwareManaged,
			})
			b := r.Power
			out.Rows = append(out.Rows, Fig9Row{
				Kernel:        k.Name,
				Config:        cc.name,
				Breakdown:     b,
				SerDesStaticW: b.SerDesStatic,
				ExtStaticW:    b.ExtStatic,
				SerDesDynW:    b.SerDesDynamic,
				ExtDynW:       b.ExtDynamic,
				CUDynW:        b.CUDynamic,
				OtherW:        b.OtherW(),
				TotalW:        b.Total(),
			})
		}
	}
	return out
}
