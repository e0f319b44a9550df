package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/dse"
	"ena/internal/faults"
	"ena/internal/memsys"
	"ena/internal/power"
	"ena/internal/powopt"
	"ena/internal/workload"
)

// ConfigView is the wire form of a design point.
type ConfigView struct {
	CUs     int     `json:"cus"`
	FreqMHz float64 `json:"freq_mhz"`
	BWTBps  float64 `json:"bw_tbps"`
}

// SimulateRequest is the body of POST /v1/simulate. Zero config fields
// default to the paper's best-mean design point (320 CUs / 1000 MHz /
// 3 TB/s); Kernel is required.
//
// FaultMask, when set, degrades the node before simulating (grammar of
// faults.ParseMask, e.g. "gpu:2,hbm@0"); Seed picks the victims of
// count-based entries. Detailed additionally runs the event-driven NoC
// simulation — the only model that sees link faults — with a deadline-aware
// fallback to the analytic result (flagged degraded) when the simulation
// budget runs out.
// Kernel accepts either a Table I suite name (workload.ByName) or a DL
// kernel spec string (workload.ParseDL, e.g. "gemm:4096x4096x4096:fp16" or
// "attn:1x32x1x2048x128:fp16") — spec strings are canonicalized, so
// equivalent spellings share one cache slot.
//
// Scenario selects an additional analysis layered on the analytic result.
// The only scenario is "serving": the kernel (which must be a DL spec — it
// needs a batch axis) is swept over Batches through the roofline and each
// point replayed through the event-driven batched-FIFO server, reporting
// latency percentiles. QPS fixes the offered load for every point (zero
// offers 70% of each point's batched capacity); Requests sets the simulated
// request count per point.
type SimulateRequest struct {
	CUs       int        `json:"cus,omitempty"`
	FreqMHz   float64    `json:"freq_mhz,omitempty"`
	BWTBps    float64    `json:"bw_tbps,omitempty"`
	Kernel    string     `json:"kernel"`
	FaultMask string     `json:"fault_mask,omitempty"`
	Seed      int64      `json:"seed,omitempty"`
	Detailed  bool       `json:"detailed,omitempty"`
	Scenario  string     `json:"scenario,omitempty"`
	QPS       float64    `json:"qps,omitempty"`
	Batches   string     `json:"batches,omitempty"`
	Requests  int        `json:"requests,omitempty"`
	Options   SimOptions `json:"options,omitempty"`
}

// SimOptions mirrors core.Options with JSON-friendly names. Policy is one of
// "software-managed" (default), "static-interleave", "hardware-cache";
// Optimizations lists §V-E techniques by name ("ntc", "async-cu",
// "async-routers", "low-power-links", "compression", or "all").
type SimOptions struct {
	MissFrac         float64  `json:"miss_frac,omitempty"`
	UseAppExtTraffic bool     `json:"use_app_ext_traffic,omitempty"`
	Policy           string   `json:"policy,omitempty"`
	Optimizations    []string `json:"optimizations,omitempty"`
	TempC            float64  `json:"temp_c,omitempty"`
	ExcludeExternal  bool     `json:"exclude_external,omitempty"`
}

// SimulateResponse is the body of a simulate reply. Cached reports whether
// this request was served without executing the model (a cache hit or a
// coalesced share of a concurrent identical request); Key is the canonical
// content hash identifying the (config, workload) pair.
type SimulateResponse struct {
	Key      string     `json:"key"`
	Cached   bool       `json:"cached"`
	Config   ConfigView `json:"config"`
	Kernel   string     `json:"kernel"`
	TFLOPs   float64    `json:"tflops"`
	Bound    string     `json:"bound"`
	MissFrac float64    `json:"miss_frac"`
	NodeW    float64    `json:"node_w"`
	PackageW float64    `json:"package_w"`
	GFperW   float64    `json:"gf_per_w"`
	// Fault-injection annotations (zero on healthy requests). FaultMask is
	// the resolved, fully-targeted canonical mask; Disabled lists the
	// failed units. Degraded marks a response produced by a fallback path
	// (analytic instead of detailed, or a partitioned network), with the
	// reason alongside.
	FaultMask      string   `json:"fault_mask,omitempty"`
	Disabled       []string `json:"disabled,omitempty"`
	Degraded       bool     `json:"degraded,omitempty"`
	DegradedReason string   `json:"degraded_reason,omitempty"`
	Detailed       bool     `json:"detailed,omitempty"`
	Partitioned    bool     `json:"partitioned,omitempty"`
	MeanLatencyNs  float64  `json:"mean_latency_ns,omitempty"`
	SustainedGBps  float64  `json:"sustained_gbps,omitempty"`
	// Serving carries the inference-serving scenario's per-batch operating
	// points (nil unless the request asked for scenario "serving").
	Serving []ServingView `json:"serving,omitempty"`
}

// ServingView is one batch point of the serving scenario: the roofline-
// derived service time and capacity, and the event-driven latency summary
// at the offered load.
type ServingView struct {
	Batch       int     `json:"batch"`
	ServiceUs   float64 `json:"service_us"`
	CapacityRPS float64 `json:"capacity_rps"`
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedRPS float64 `json:"achieved_rps"`
	MeanBatch   float64 `json:"mean_batch"`
	Utilization float64 `json:"utilization"`
	P50Us       float64 `json:"p50_us"`
	P95Us       float64 `json:"p95_us"`
	P99Us       float64 `json:"p99_us"`
}

// Serving-scenario bounds: each batch point replays Requests arrivals
// through the event simulator and probes one roofline simulation per batch
// size up to the point's cap, so both axes are bounded to keep the route's
// worst case at interactive latency.
const (
	defaultServingRequests = 5000
	maxServingRequests     = 200000
	defaultServingBatches  = "1,2,4,8,16"
	maxServingBatch        = 256
	// minServingQPS is the lowest offered rate a request may pin: one
	// request per 1,000 s, far below any load worth simulating. Arrival
	// gaps average 1e9/QPS ns, so a rate like 1e-300 would put the first
	// arrival at +Inf.
	minServingQPS = 1e-3
)

// simJob is a resolved, validated simulate request: everything the worker
// needs plus the canonical cache keys. inj is nil for a healthy node. The
// detailed phase has its own key (detailedKey) so a deadline-pressed fallback
// — which serves the analytic result — never occupies the detailed slot.
//
// cfg is nil until node builds it: a healthy request's key needs only the
// axes, and a cache hit never needs the node.
type simJob struct {
	cfg         *arch.NodeConfig
	view        ConfigView
	kernel      workload.Kernel
	opt         core.Options
	inj         *faults.Injection
	detailed    bool
	seed        int64
	key         string
	detailedKey string

	// Serving-scenario fields (serving is false for plain simulations).
	serving  bool
	dl       workload.DLSpec
	qps      float64
	batches  []int
	requests int
}

// simCanon is the canonical-JSON form hashed into a simulate cache key. The
// field set and order are fixed; V bumps when the semantics of any field
// change so stale keys never alias new results (V=2 added fault injection:
// Mask is the resolved fully-targeted mask, so equivalent spellings — and
// count masks that resolve to the same victims — share a slot; Detailed
// splits the event-driven phase into its own slot. V=3 added the serving
// scenario: Kernel carries the canonical DL spec string, and Scenario /
// QPS / Batches / Requests shape the serving replay baked into the cached
// response — Batches is the canonical sorted-unique render, so permuted
// batch lists alias).
type simCanon struct {
	V               int     `json:"v"`
	CUs             int     `json:"cus"`
	FreqMHz         float64 `json:"freq_mhz"`
	BWTBps          float64 `json:"bw_tbps"`
	Kernel          string  `json:"kernel"`
	MissFrac        float64 `json:"miss_frac"`
	UseApp          bool    `json:"use_app_ext_traffic"`
	Policy          int     `json:"policy"`
	Opts            uint    `json:"opts"`
	TempC           float64 `json:"temp_c"`
	ExcludeExternal bool    `json:"exclude_external"`
	Mask            string  `json:"mask"`
	Seed            int64   `json:"seed"`
	Detailed        bool    `json:"detailed"`
	Scenario        string  `json:"scenario"`
	QPS             float64 `json:"qps"`
	Batches         string  `json:"batches"`
	Requests        int     `json:"requests"`
}

// hashCanon hashes a canonical struct's JSON encoding. encoding/json emits
// struct fields in declaration order, so the encoding — and therefore the
// key — is deterministic.
func hashCanon(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Canonical structs contain only scalars and strings; a marshal
		// failure is a programming error.
		panic("service: canonical marshal: " + err.Error())
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// parsePolicy resolves a wire policy name. Empty means software-managed,
// the paper's primary management mode.
func parsePolicy(s string) (memsys.Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "software", "software-managed":
		return memsys.SoftwareManaged, nil
	case "static", "static-interleave":
		return memsys.StaticInterleave, nil
	case "hardware", "hardware-cache":
		return memsys.HardwareCache, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want software-managed, static-interleave or hardware-cache)", s)
}

var techByName = map[string]powopt.Technique{
	"ntc":             powopt.NTC,
	"async-cu":        powopt.AsyncCU,
	"async-routers":   powopt.AsyncRouters,
	"low-power-links": powopt.LowPowerLinks,
	"compression":     powopt.Compression,
	"all":             powopt.All,
}

// techNames is the canonical render of a technique mask, sorted.
func techNames(t powopt.Technique) []string {
	if t == 0 {
		return nil
	}
	var out []string
	for name, bit := range techByName {
		if name != "all" && t&bit == bit {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// parseTechniques folds wire names into a technique mask; duplicates and
// ordering are irrelevant (the mask is canonical).
func parseTechniques(names []string) (powopt.Technique, error) {
	var t powopt.Technique
	for _, n := range names {
		bit, ok := techByName[strings.ToLower(strings.TrimSpace(n))]
		if !ok {
			return 0, fmt.Errorf("unknown optimization %q (want ntc, async-cu, async-routers, low-power-links, compression or all)", n)
		}
		t |= bit
	}
	return t, nil
}

// checkAxis bounds a positive classic-axis value to [lo, hi].
func checkAxis(name string, v, lo, hi float64) error {
	if v > hi {
		return fmt.Errorf("%s %v exceeds the limit of %v", name, v, hi)
	}
	if v > 0 && v < lo {
		return fmt.Errorf("%s %v is below the limit of %v", name, v, lo)
	}
	return nil
}

// resolve validates the request, applies defaults, and derives the canonical
// cache key. Errors are client errors (HTTP 400).
//
// A healthy request's node is not built here but by simJob.node, and only
// when the key is not resident. That is safe because cfg.Validate reads
// only the three axes, which are in the key, and only a successful
// execution makes a key resident. A fault mask needs the node to resolve
// its victims, so a masked request builds it here.
func (r SimulateRequest) resolve() (_ simJob, err error) {
	if r.CUs == 0 {
		r.CUs = arch.ProvisionedCUs
	}
	if r.FreqMHz == 0 {
		r.FreqMHz = 1000
	}
	if r.BWTBps == 0 {
		r.BWTBps = 3
	}
	// Non-positive values are left to cfg.Validate's errors.
	if err := checkAxis("freq_mhz", r.FreqMHz, arch.MinGPUFreqMHz, arch.MaxGPUFreqMHz); err != nil {
		return simJob{}, err
	}
	if err := checkAxis("bw_tbps", r.BWTBps, arch.MinInPackageBWTBps, arch.MaxInPackageBWTBps); err != nil {
		return simJob{}, err
	}
	if r.Kernel == "" {
		return simJob{}, fmt.Errorf("kernel is required (one of %s, or a DL spec like gemm:M x N x K:dtype)", strings.Join(workload.Names(), ", "))
	}
	// Suite names first; anything with a spec separator is a DL kernel.
	k, err := workload.ByName(r.Kernel)
	var dl workload.DLSpec
	if err != nil {
		if !strings.Contains(r.Kernel, ":") {
			return simJob{}, err
		}
		dl, err = workload.ParseDL(r.Kernel)
		if err != nil {
			return simJob{}, err
		}
		if k, err = dl.Kernel(); err != nil {
			return simJob{}, err
		}
	}
	pol, err := parsePolicy(r.Options.Policy)
	if err != nil {
		return simJob{}, err
	}
	tech, err := parseTechniques(r.Options.Optimizations)
	if err != nil {
		return simJob{}, err
	}
	if r.Options.MissFrac < 0 || r.Options.MissFrac > 1 {
		return simJob{}, fmt.Errorf("miss_frac %v out of [0,1]", r.Options.MissFrac)
	}
	if t := r.Options.TempC; t != 0 && (t < power.MinTempC || t > power.MaxTempC) {
		return simJob{}, fmt.Errorf("temp_c %v out of [%v, %v] (0 = the %v C reference)", t, power.MinTempC, power.MaxTempC, power.LeakageRefTempC)
	}
	// In the error order clients see, the node's validation comes before
	// every check below, although the node itself is built later.
	defer func() {
		if err == nil {
			return
		}
		if nerr := arch.EHP(r.CUs, r.FreqMHz, r.BWTBps).Validate(); nerr != nil {
			err = nerr
		}
	}()
	var cfg *arch.NodeConfig
	var inj *faults.Injection
	var maskStr string
	if mask, err := faults.ParseMask(r.FaultMask); err != nil {
		return simJob{}, err
	} else if !mask.Empty() {
		cfg = arch.EHP(r.CUs, r.FreqMHz, r.BWTBps)
		if err := cfg.Validate(); err != nil {
			return simJob{}, err
		}
		inj, err = faults.Apply(cfg, mask, r.Seed)
		if err != nil {
			return simJob{}, err
		}
		cfg = inj.Config
		// The resolved mask — not the request spelling — is the cache
		// identity, so equivalent masks (and count masks that happen to
		// pick the same victims) share one slot.
		maskStr = inj.Resolved.String()
	}
	opt := core.Options{
		MissFrac:         r.Options.MissFrac,
		UseAppExtTraffic: r.Options.UseAppExtTraffic,
		Policy:           pol,
		Optimizations:    tech,
		TempC:            r.Options.TempC,
		ExcludeExternal:  r.Options.ExcludeExternal,
	}
	scenario := strings.ToLower(strings.TrimSpace(r.Scenario))
	var batches []int
	if scenario != "" {
		if scenario != "serving" {
			return simJob{}, fmt.Errorf("unknown scenario %q (want serving)", r.Scenario)
		}
		if dl == nil {
			return simJob{}, fmt.Errorf("scenario serving needs a DL kernel spec (gemm:/conv:/attn:), got suite kernel %q", r.Kernel)
		}
		if r.QPS != 0 && !(r.QPS >= minServingQPS) || math.IsInf(r.QPS, 0) {
			return simJob{}, fmt.Errorf("qps %v must be non-negative and finite: zero (70%% of capacity) or at least %v", r.QPS, minServingQPS)
		}
		if r.Requests == 0 {
			r.Requests = defaultServingRequests
		}
		if r.Requests < 1 || r.Requests > maxServingRequests {
			return simJob{}, fmt.Errorf("requests %d out of [1, %d]", r.Requests, maxServingRequests)
		}
		if r.Batches == "" {
			r.Batches = defaultServingBatches
		}
		batches, err = workload.ParseBatchList(r.Batches)
		if err != nil {
			return simJob{}, err
		}
		if mx := batches[len(batches)-1]; mx > maxServingBatch {
			return simJob{}, fmt.Errorf("batch %d too large for the serving scenario (max %d)", mx, maxServingBatch)
		}
	} else if r.QPS != 0 || r.Batches != "" || r.Requests != 0 {
		return simJob{}, fmt.Errorf("qps/batches/requests need scenario \"serving\"")
	}
	canon := simCanon{
		V:               3,
		CUs:             r.CUs,
		FreqMHz:         r.FreqMHz,
		BWTBps:          r.BWTBps,
		Kernel:          k.Name,
		MissFrac:        opt.MissFrac,
		UseApp:          opt.UseAppExtTraffic,
		Policy:          int(pol),
		Opts:            uint(tech),
		TempC:           opt.TempC,
		ExcludeExternal: opt.ExcludeExternal,
		Mask:            maskStr,
	}
	if scenario != "" {
		canon.Scenario = scenario
		canon.QPS = r.QPS
		canon.Batches = workload.FormatBatchList(batches)
		canon.Requests = r.Requests
		// The arrival process is seeded, so the seed is part of the cached
		// serving result's identity (healthy plain requests stay seed-free).
		canon.Seed = r.Seed
	}
	job := simJob{
		cfg:      cfg,
		view:     ConfigView{CUs: r.CUs, FreqMHz: r.FreqMHz, BWTBps: r.BWTBps},
		kernel:   k,
		opt:      opt,
		inj:      inj,
		detailed: r.Detailed,
		seed:     r.Seed,
		key:      hashCanon(canon),
		serving:  scenario != "",
		dl:       dl,
		qps:      r.QPS,
		batches:  batches,
		requests: r.Requests,
	}
	if r.Detailed {
		// The detailed phase depends on the traffic seed; the analytic
		// phase does not, so only this key carries it.
		canon.Detailed = true
		canon.Seed = r.Seed
		job.detailedKey = hashCanon(canon)
	}
	return job, nil
}

// node builds and validates the job's node if resolve deferred it.
func (j *simJob) node() error {
	if j.cfg != nil {
		return nil
	}
	cfg := arch.EHP(j.view.CUs, j.view.FreqMHz, j.view.BWTBps)
	if err := cfg.Validate(); err != nil {
		return err
	}
	j.cfg = cfg
	return nil
}

// ExploreRequest is the body of POST /v1/explore. Empty grids default to the
// paper's exploration ranges, empty kernels to the full Table I suite, and a
// zero budget to the paper's 160 W node budget. TimeoutSec bounds the job's
// runtime (0 = the server's default job timeout).
//
// The packaging axes (gpu_chiplets / hbm_stack_gbs / ext_modules) extend the
// swept space beyond the paper's CU/frequency/bandwidth grid; omitted they
// pin the paper's fixed EHP packaging. Explorer selects the search strategy:
// "exhaustive" (default) sweeps every point, "surrogate" runs the seeded
// model-guided explorer with at most eval_budget evaluations (0 = a quarter
// of the space).
type ExploreRequest struct {
	CUs           []int     `json:"cus,omitempty"`
	FreqsMHz      []float64 `json:"freqs_mhz,omitempty"`
	BWsTBps       []float64 `json:"bws_tbps,omitempty"`
	GPUChiplets   []int     `json:"gpu_chiplets,omitempty"`
	HBMStackGBs   []float64 `json:"hbm_stack_gbs,omitempty"`
	ExtModules    []int     `json:"ext_modules,omitempty"`
	Kernels       []string  `json:"kernels,omitempty"`
	BudgetW       float64   `json:"budget_w,omitempty"`
	Optimizations []string  `json:"optimizations,omitempty"`
	Explorer      string    `json:"explorer,omitempty"`
	EvalBudget    int       `json:"eval_budget,omitempty"`
	Seed          int64     `json:"seed,omitempty"`
	TimeoutSec    float64   `json:"timeout_sec,omitempty"`
}

// BestPoint is a selected design point in an explore result. The packaging
// fields are zero (omitted) for points using the paper's fixed EHP packaging.
type BestPoint struct {
	CUs         int     `json:"cus"`
	FreqMHz     float64 `json:"freq_mhz"`
	BWTBps      float64 `json:"bw_tbps"`
	GPUChiplets int     `json:"gpu_chiplets,omitempty"`
	HBMStackGB  float64 `json:"hbm_stack_gb,omitempty"`
	ExtModules  int     `json:"ext_modules,omitempty"`
	MeanScore   float64 `json:"mean_score,omitempty"`
}

// KernelBest is one kernel's best in-budget configuration.
type KernelBest struct {
	Kernel  string  `json:"kernel"`
	CUs     int     `json:"cus"`
	FreqMHz float64 `json:"freq_mhz"`
	BWTBps  float64 `json:"bw_tbps"`
	TFLOPs  float64 `json:"tflops"`
	BudgetW float64 `json:"budget_w"`
}

// ExploreResult is a completed exploration job's result payload. Points is
// the number of configurations actually evaluated — the full space under the
// exhaustive explorer, the acquisition trajectory under the surrogate (whose
// SpaceSize then reports the full space it searched).
type ExploreResult struct {
	Key           string       `json:"key"`
	Points        int          `json:"points"`
	Feasible      int          `json:"feasible"`
	BudgetW       float64      `json:"budget_w"`
	Optimizations []string     `json:"optimizations,omitempty"`
	Explorer      string       `json:"explorer,omitempty"`
	SpaceSize     int          `json:"space_size,omitempty"`
	BestMean      BestPoint    `json:"best_mean"`
	PerKernel     []KernelBest `json:"per_kernel"`
}

// exploreJob is a resolved explore request.
type exploreJob struct {
	space      dse.Space
	kernels    []workload.Kernel
	names      []string
	budgetW    float64
	tech       powopt.Technique
	explorer   string
	evalBudget int
	seed       int64
	timeout    time.Duration
	key        string
}

// exploreCanon is the canonical (cache-key) form of an explore request. V is
// 2 since the packaging axes and explorer fields joined the key: bumping the
// version re-keys every job, so pre-expansion cache entries can never alias a
// request that now means something subtly different.
type exploreCanon struct {
	V          int       `json:"v"`
	CUs        []int     `json:"cus"`
	Freqs      []float64 `json:"freqs_mhz"`
	BWs        []float64 `json:"bws_tbps"`
	Chiplets   []int     `json:"gpu_chiplets,omitempty"`
	HBMs       []float64 `json:"hbm_stack_gbs,omitempty"`
	ExtMods    []int     `json:"ext_modules,omitempty"`
	Kernels    []string  `json:"kernels"`
	BudgetW    float64   `json:"budget_w"`
	Opts       uint      `json:"opts"`
	Explorer   string    `json:"explorer"`
	EvalBudget int       `json:"eval_budget,omitempty"`
	Seed       int64     `json:"seed,omitempty"`
}

// resolve validates an explore request and canonicalizes it: the swept grids
// are sorted and deduplicated (grid order never changes which configurations
// exist), so permuted requests share one cache key and one execution.
func (r ExploreRequest) resolve() (exploreJob, error) {
	space := dse.DefaultSpace()
	if len(r.CUs) > 0 {
		space.CUs = sortedUniqueInts(r.CUs)
	}
	if len(r.FreqsMHz) > 0 {
		space.FreqsMHz = sortedUniqueFloats(r.FreqsMHz)
	}
	if len(r.BWsTBps) > 0 {
		space.BWsTBps = sortedUniqueFloats(r.BWsTBps)
	}
	if len(r.GPUChiplets) > 0 {
		space.GPUChiplets = sortedUniqueInts(r.GPUChiplets)
	}
	if len(r.HBMStackGBs) > 0 {
		space.HBMStackGBs = sortedUniqueFloats(r.HBMStackGBs)
	}
	if len(r.ExtModules) > 0 {
		space.ExtModules = sortedUniqueInts(r.ExtModules)
	}
	if err := space.Validate(); err != nil {
		return exploreJob{}, err
	}
	explorer := r.Explorer
	switch explorer {
	case "", "exhaustive":
		explorer = "exhaustive"
		if r.EvalBudget != 0 {
			return exploreJob{}, fmt.Errorf("eval_budget requires explorer \"surrogate\"")
		}
		if r.Seed != 0 {
			return exploreJob{}, fmt.Errorf("seed requires explorer \"surrogate\"")
		}
	case "surrogate":
		if r.EvalBudget < 0 {
			return exploreJob{}, fmt.Errorf("negative eval_budget %d", r.EvalBudget)
		}
	default:
		return exploreJob{}, fmt.Errorf("unknown explorer %q (want exhaustive or surrogate)", r.Explorer)
	}
	ks := workload.Suite()
	if len(r.Kernels) > 0 {
		ks = ks[:0]
		for _, name := range r.Kernels {
			k, err := workload.ByName(name)
			if err != nil {
				return exploreJob{}, err
			}
			ks = append(ks, k)
		}
	}
	budget := r.BudgetW
	if budget == 0 {
		budget = arch.NodePowerBudgetW
	}
	if budget < 0 {
		return exploreJob{}, fmt.Errorf("negative budget %v W", budget)
	}
	tech, err := parseTechniques(r.Optimizations)
	if err != nil {
		return exploreJob{}, err
	}
	timeout, err := jobTimeoutOf(r.TimeoutSec)
	if err != nil {
		return exploreJob{}, err
	}
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	key := hashCanon(exploreCanon{
		V:          2,
		CUs:        space.CUs,
		Freqs:      space.FreqsMHz,
		BWs:        space.BWsTBps,
		Chiplets:   space.GPUChiplets,
		HBMs:       space.HBMStackGBs,
		ExtMods:    space.ExtModules,
		Kernels:    names,
		BudgetW:    budget,
		Opts:       uint(tech),
		Explorer:   explorer,
		EvalBudget: r.EvalBudget,
		Seed:       r.Seed,
	})
	return exploreJob{
		space:      space,
		kernels:    ks,
		names:      names,
		budgetW:    budget,
		tech:       tech,
		explorer:   explorer,
		evalBudget: r.EvalBudget,
		seed:       r.Seed,
		timeout:    timeout,
		key:        key,
	}, nil
}

// summarize shapes a dse.Outcome into the wire result.
func (e exploreJob) summarize(out dse.Outcome) ExploreResult {
	res := ExploreResult{
		Key:           e.key,
		Points:        len(out.Evals),
		BudgetW:       e.budgetW,
		Optimizations: techNames(e.tech),
		Explorer:      e.explorer,
		SpaceSize:     e.space.Size(),
		BestMean: BestPoint{
			CUs:         out.BestMean.Point.CUs,
			FreqMHz:     out.BestMean.Point.FreqMHz,
			BWTBps:      out.BestMean.Point.BWTBps,
			GPUChiplets: out.BestMean.Point.GPUChiplets,
			HBMStackGB:  out.BestMean.Point.HBMStackGB,
			ExtModules:  out.BestMean.Point.ExtModules,
			MeanScore:   out.BestMean.MeanScore,
		},
	}
	for _, ev := range out.Evals {
		if ev.FeasibleAll {
			res.Feasible++
		}
	}
	for i, k := range e.names {
		if i >= len(out.BestPerKernel) {
			break
		}
		b := out.BestPerKernel[i]
		kb := KernelBest{Kernel: k, CUs: b.Point.CUs, FreqMHz: b.Point.FreqMHz, BWTBps: b.Point.BWTBps}
		if i < len(b.PerfTFLOPs) {
			kb.TFLOPs = b.PerfTFLOPs[i]
			kb.BudgetW = b.BudgetW[i]
		}
		res.PerKernel = append(res.PerKernel, kb)
	}
	return res
}

func sortedUniqueInts(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

func sortedUniqueFloats(in []float64) []float64 {
	out := append([]float64(nil), in...)
	sort.Float64s(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
