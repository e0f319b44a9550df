package exp

import (
	"fmt"
	"runtime"
	"slices"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/memsys"
	"ena/internal/noc"
	"ena/internal/perf"
	"ena/internal/ras"
	"ena/internal/workload"
)

// AblationNoCRow is one sensitivity sample of the chiplet-overhead study.
type AblationNoCRow struct {
	Kernel        string
	TSVScale      float64 // multiplier on the calibrated TSV hop latency
	LocalityDelta float64 // additive shift of the kernel's chiplet locality
	PerfVsMono    float64
	OutOfChiplet  float64
}

// TopologyRow compares interposer wiring options.
type TopologyRow struct {
	Topology      string
	SustainedTBps float64
	MeanLatencyNs float64
}

// AblationNoCResult extends Fig. 7 with locality sweeps and an interposer
// topology comparison, probing how robust the "small chiplet overhead"
// takeaway is.
type AblationNoCResult struct {
	Rows     []AblationNoCRow
	Topology []TopologyRow
}

// Render implements Result.
func (r AblationNoCResult) Render() string {
	t := &table{header: []string{"kernel", "TSV x", "locality delta", "out-of-chiplet", "perf vs monolithic"}}
	for _, row := range r.Rows {
		t.addRow(row.Kernel, fmt.Sprintf("%.1f", row.TSVScale),
			fmt.Sprintf("%+.2f", row.LocalityDelta),
			fmtPct(row.OutOfChiplet), fmtPct(row.PerfVsMono))
	}
	s := "Ablation: chiplet-network sensitivity (Fig. 7 extension)\n" + t.String()
	if len(r.Topology) > 0 {
		t2 := &table{header: []string{"interposer topology", "sustained TB/s (SNAP)", "mean latency (ns)"}}
		for _, row := range r.Topology {
			t2.addRow(row.Topology, fmt.Sprintf("%.2f", row.SustainedTBps),
				fmt.Sprintf("%.0f", row.MeanLatencyNs))
		}
		s += t2.String()
	}
	return s
}

// AblationNoC sweeps kernel locality around its calibrated value (the
// architecturally meaningful knob: cache capacity / placement quality) and
// compares the EHP's point-to-point interposer wiring against a cheaper
// chain topology for the highest-traffic kernel. A row whose shifted kernel
// is Fig. 7's kernel, and the point-to-point SNAP row, read Fig. 7's runs
// (fig7Sims). The other simulations — a chiplet and a monolithic run per
// shifted kernel, and the chain run — are independent, so they run on a
// GOMAXPROCS-bounded pool.
func AblationNoC() AblationNoCResult {
	cfg := arch.BestMeanEHP()
	monoCfg := arch.Monolithic(cfg)
	ks := fig7KernelList()
	chiplet0, mono0 := fig7Sims()
	deltas := []float64{-0.15, 0, 0.15, 0.30}
	// Topology comparison: the bisection-limited chain vs the EHP's
	// point-to-point paths, under the heaviest traffic (SNAP).
	snap := slices.Index(fig7Kernels, "SNAP")

	type sim struct {
		cfg *arch.NodeConfig
		k   workload.Kernel
		opt noc.Options
		dst *noc.Result
	}
	var (
		sims    []sim
		shifted = make([]workload.Kernel, len(ks)*len(deltas))
		chiplet = make([]noc.Result, len(shifted))
		mono    = make([]noc.Result, len(shifted))
		chain   noc.Result
	)
	for i := range shifted {
		ki := i / len(deltas)
		k := ks[ki]
		k.CacheLocality = min(max(k.CacheLocality+deltas[i%len(deltas)], 0), 0.95)
		shifted[i] = k
		if k.CacheLocality == ks[ki].CacheLocality {
			chiplet[i], mono[i] = chiplet0[ki], mono0[ki]
			continue
		}
		opt := noc.Options{Seed: fig7Seed}
		sims = append(sims, sim{cfg, k, opt, &chiplet[i]}, sim{monoCfg, k, opt, &mono[i]})
	}
	sims = append(sims, sim{cfg, ks[snap], noc.Options{Seed: fig7Seed, Topology: noc.Chain}, &chain})
	parallelFor(len(sims), runtime.GOMAXPROCS(0), func(j int) {
		s := sims[j]
		*s.dst = noc.Simulate(s.cfg, s.k, s.opt)
	})

	out := AblationNoCResult{Rows: make([]AblationNoCRow, len(shifted))}
	for i, k := range shifted {
		c := noc.CompareResults(cfg, k, chiplet[i], mono[i])
		out.Rows[i] = AblationNoCRow{
			Kernel:        k.Name,
			TSVScale:      1,
			LocalityDelta: deltas[i%len(deltas)],
			PerfVsMono:    c.PerfVsMonolith,
			OutOfChiplet:  c.OutOfChiplet,
		}
	}
	topoRow := func(t noc.Topology, r noc.Result) TopologyRow {
		return TopologyRow{Topology: t.String(), SustainedTBps: r.SustainedGBps / 1000, MeanLatencyNs: r.MeanLatencyNs}
	}
	out.Topology = []TopologyRow{topoRow(noc.PointToPoint, chiplet0[snap]), topoRow(noc.Chain, chain)}
	return out
}

// MemPolicyRow is one (kernel, policy) outcome.
type MemPolicyRow struct {
	Kernel      string
	Policy      memsys.Policy
	MissFrac    float64
	NormPerf    float64 // vs all-in-package
	FitsProblem bool
	UsableCapGB float64
}

// MemPolicyResult is the management-policy ablation (§II-B3's design
// discussion, quantified).
type MemPolicyResult struct {
	Rows []MemPolicyRow
}

// Render implements Result.
func (r MemPolicyResult) Render() string {
	t := &table{header: []string{"kernel", "policy", "ext traffic", "perf vs in-package", "fits problem", "usable GB"}}
	for _, row := range r.Rows {
		t.addRow(row.Kernel, row.Policy.String(), fmtPct(row.MissFrac), fmtPct(row.NormPerf),
			fmt.Sprintf("%v", row.FitsProblem), fmt.Sprintf("%.0f", row.UsableCapGB))
	}
	return "Ablation: memory-management policies\n" + t.String()
}

// AblationMemPolicy evaluates static interleaving, software-managed
// migration, and the hardware-cache mode for the large-footprint kernels.
func AblationMemPolicy() MemPolicyResult {
	cfg := arch.BestMeanEHP()
	var out MemPolicyResult
	for _, k := range workload.Suite() {
		if k.FootprintGB <= cfg.InPackageCapacityGB() {
			continue // in-package-resident kernels see no difference
		}
		base := perf.Estimate(cfg, k, memsys.Env(cfg, k, 0))
		for _, p := range []memsys.Policy{memsys.StaticInterleave, memsys.SoftwareManaged, memsys.HardwareCache} {
			env := memsys.EnvUnderPolicy(cfg, k, p)
			got := perf.Estimate(cfg, k, env)
			norm := 0.0
			if base.TFLOPs > 0 {
				norm = got.TFLOPs / base.TFLOPs
			}
			out.Rows = append(out.Rows, MemPolicyRow{
				Kernel:      k.Name,
				Policy:      p,
				MissFrac:    memsys.MissFrac(cfg, k, p),
				NormPerf:    norm,
				FitsProblem: memsys.FitsProblem(cfg, k, p),
				UsableCapGB: memsys.UsableCapacityGB(cfg, p),
			})
		}
	}
	return out
}

// RASRow is one configuration's reliability summary.
type RASRow struct {
	Label          string
	NodeMTTFHours  float64
	SystemMTTFMins float64
	SilentFIT      float64
	OptCkptMins    float64
	Efficiency     float64
}

// RASResult is the reliability extension experiment.
type RASResult struct {
	Rows []RASRow
	// RMT overhead per kernel at the best-mean configuration.
	RMTOverhead map[string]float64
	// FailureInjection validates the analytic checkpoint-efficiency model
	// against the Monte Carlo failure simulator (default RAS config).
	FailureInjection ras.FailSimResult
}

// Render implements Result.
func (r RASResult) Render() string {
	t := &table{header: []string{"config", "node MTTF (h)", "system MTTF (min)", "silent FIT/node", "opt ckpt (min)", "machine efficiency"}}
	for _, row := range r.Rows {
		t.addRow(row.Label, fmt.Sprintf("%.0f", row.NodeMTTFHours),
			fmt.Sprintf("%.1f", row.SystemMTTFMins), fmt.Sprintf("%.0f", row.SilentFIT),
			fmt.Sprintf("%.1f", row.OptCkptMins), fmtPct(row.Efficiency))
	}
	s := "Extension: RAS analysis (100,000-node machine, 2-minute checkpoints)\n" + t.String()
	s += "RMT overhead at best-mean config:\n"
	for _, k := range sortedKeys(r.RMTOverhead) {
		s += fmt.Sprintf("  %-9s %s\n", k, fmtPct(r.RMTOverhead[k]))
	}
	fi := r.FailureInjection
	s += fmt.Sprintf("failure injection (one week of work): %d failures, %d checkpoints, efficiency %s (analytic %s, gap %.1f pp)\n",
		fi.Failures, fi.Checkpoints, fmtPct(fi.Efficiency), fmtPct(fi.AnalyticEst), fi.EstimationGapP)
	return s
}

// RAS quantifies the §II-A5/§VI reliability discussion: ECC and RMT choices
// against node/system MTTF, and the resulting checkpoint efficiency.
func RAS() RASResult {
	cfg := arch.BestMeanEHP()
	const ckptMins = 2.0
	var out RASResult
	for _, cc := range []struct {
		label string
		rc    ras.Config
	}{
		{"no protection", ras.Config{}},
		{"SECDED in-package", ras.Config{MemoryECC: ras.SECDED}},
		{"default (SECDED + chipkill + RMT)", ras.DefaultConfig()},
	} {
		a := ras.Analyze(cfg, cc.rc, arch.NodeCount)
		row := RASRow{
			Label:          cc.label,
			NodeMTTFHours:  a.NodeMTTFHours,
			SystemMTTFMins: a.SystemMTTFMins,
			SilentFIT:      a.SilentFIT,
		}
		if opt, err := ras.OptimalCheckpointMins(ckptMins, a.SystemMTTFMins); err == nil {
			row.OptCkptMins = opt
			row.Efficiency = ras.CheckpointEfficiency(opt, ckptMins, a.SystemMTTFMins)
		}
		out.Rows = append(out.Rows, row)
	}
	out.RMTOverhead = map[string]float64{}
	for _, k := range workload.Suite() {
		r := core.Simulate(cfg, k, core.Options{})
		out.RMTOverhead[k.Name] = ras.RMTOverheadFrac(r.Perf.UtilOfPeak)
	}

	// Validate the analytic efficiency with failure injection at the
	// protected configuration's system MTTF.
	prot := ras.Analyze(cfg, ras.DefaultConfig(), arch.NodeCount)
	if opt, err := ras.OptimalCheckpointMins(ckptMins, prot.SystemMTTFMins); err == nil {
		out.FailureInjection = ras.SimulateFailures(ras.FailSimConfig{
			SystemMTTFMins: prot.SystemMTTFMins,
			IntervalMins:   opt,
			CheckpointMins: ckptMins,
			JobWorkMins:    7 * 24 * 60, // one week of useful work
			Seed:           1,
		})
	}
	return out
}
