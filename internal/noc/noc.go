// Package noc models the EHP's chiplet/interposer interconnect (paper §II-A2,
// §II-A3, §V-A): GPU and CPU chiplets stacked on active interposers, with
// remote accesses paying two TSV hops plus interposer-link traversal. A
// closed-loop, event-driven simulation with per-kernel memory-level
// parallelism measures the sustainable memory throughput and loaded latency
// of the chiplet organization versus a hypothetical monolithic EHP — the
// Fig. 7 experiment.
package noc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ena/internal/arch"
	"ena/internal/event"
	"ena/internal/obs"
	"ena/internal/perf"
	"ena/internal/units"
	"ena/internal/workload"
)

// Physical-layer parameters of the interposer network. Interposers connect
// with wide, short-distance, point-to-point paths (§II-A): every interposer
// pair has a direct link, so a remote access crosses exactly one link but
// pays distance-proportional wire latency.
const (
	// TSVHopNs is one vertical chiplet<->interposer crossing including
	// the narrow-interface serialization.
	TSVHopNs = 4.0
	// RouterHopNs is one interposer router traversal (ingress + egress).
	RouterHopNs = 4.0
	// WireNsPerPosition is the wire latency per interposer position of
	// horizontal distance.
	WireNsPerPosition = 2.0
	// LinkGBps is the bandwidth of one point-to-point interposer link per
	// direction.
	LinkGBps = 512.0
	// EgressGBps is a chiplet's TSV egress bandwidth to its interposer.
	EgressGBps = 768.0
	// CrossbarNs is the single-hop latency of the monolithic baseline.
	CrossbarNs = 4.0
	// CPUTrafficFrac adds CPU-to-GPU-memory coherence/command traffic on
	// top of the GPU streams; it always crosses chiplets.
	CPUTrafficFrac = 0.05
)

// interposerOf maps GPU chiplet index (0..7) to its interposer position in
// the EHP floorplan row: [G G | C C | G G] with two GPU chiplets per GPU
// interposer (Fig. 2): interposers 0,1 on the left, 2,3 CPU in the center,
// 4,5 on the right.
func interposerOf(chiplet int) int {
	switch chiplet / 2 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 4
	default:
		return 5
	}
}

// cpuInterposers are the central interposer positions.
var cpuInterposers = []int{2, 3}

// hops returns the number of interposer-to-interposer links between two
// interposer positions (a linear chain of six positions).
func hops(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// Result summarizes one traffic simulation.
type Result struct {
	Requests        int
	OutOfChiplet    float64 // fraction of requests leaving their source chiplet
	SustainedGBps   float64 // closed-loop memory throughput
	MeanLatencyNs   float64
	MeanHops        float64
	LinkUtilization float64
}

type server struct {
	freeAt float64
	busyNs float64
}

func (s *server) serve(t, ns float64) float64 {
	start := t
	if s.freeAt > start {
		start = s.freeAt
	}
	s.freeAt = start + ns
	s.busyNs += ns
	return s.freeAt
}

// LinkFault identifies a failed interposer-to-interposer link by its two
// endpoint positions (0..5 in the floorplan row; order is irrelevant). The
// fault-injection engine (internal/faults) produces these; traffic that would
// have used a failed link reroutes hop-by-hop over the surviving links.
type LinkFault struct {
	A, B int
}

// ErrPartitioned reports that the injected link faults disconnect at least
// one interposer pair: no routing can serve cross-chiplet traffic, so the
// degraded configuration has no meaningful steady state.
var ErrPartitioned = errors.New("noc: link faults partition the interposer network")

// Topology selects the interposer-to-interposer wiring.
type Topology int

const (
	// PointToPoint is the EHP's design: a direct wide link between every
	// interposer pair (§II-A: "wide, short-distance, point-to-point
	// paths").
	PointToPoint Topology = iota
	// Chain wires only adjacent interposers, forcing multi-hop routing —
	// the cheaper alternative the ablation compares against.
	Chain
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	if t == Chain {
		return "chain"
	}
	return "point-to-point"
}

// Options configures a simulation run.
type Options struct {
	// Tokens is the number of concurrent request tokens (defaults to the
	// node's total outstanding capacity CUs x MLP, capped for runtime).
	Tokens int
	// Requests is the total number of requests to complete (default 200k).
	Requests int
	// Seed drives the random source/destination draws.
	Seed int64
	// Topology selects the interposer wiring (default PointToPoint).
	Topology Topology
	// DownLinks lists failed interposer links. Requests reroute over the
	// cheapest surviving path (minimizing router + wire latency); if the
	// faults disconnect the network, SimulateContext returns
	// ErrPartitioned.
	DownLinks []LinkFault
	// Reg and Tracer attach observability sinks. When both are nil the
	// process-default scope (obs.Default) is consulted, so CLI-level
	// -metrics/-trace flags reach simulations buried inside experiments.
	Reg    *obs.Registry
	Tracer *obs.Tracer
	// TraceSampleEvery emits one trace event per N completed requests
	// (default 256) to keep trace files manageable; 1 records everything.
	TraceSampleEvery int
}

// Simulate runs the closed-loop chiplet-network simulation for a kernel on a
// configuration. The kernel's CacheLocality decides how often a request is
// satisfied by chiplet-local cache/DRAM; remote requests target a uniformly
// random HBM stack, reflecting capacity-interleaved addressing (§V-A
// Finding 1 observes a fairly even distribution across chiplets).
func Simulate(cfg *arch.NodeConfig, k workload.Kernel, opt Options) Result {
	r, _ := SimulateContext(context.Background(), cfg, k, opt)
	return r
}

// SimulateContext is Simulate with cooperative cancellation: the event-driven
// drain checks ctx between event batches and aborts promptly when it is
// cancelled, returning ctx.Err() and a zero Result (a partially drained
// closed-loop simulation has no meaningful steady-state statistics).
func SimulateContext(ctx context.Context, cfg *arch.NodeConfig, k workload.Kernel, opt Options) (Result, error) {
	nChiplets := len(cfg.GPU)
	if opt.Requests == 0 {
		opt.Requests = 200_000
	}
	if opt.Tokens == 0 {
		opt.Tokens = cfg.TotalCUs() * int(k.MLPPerCU)
		if opt.Tokens > 8192 {
			opt.Tokens = 8192
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))

	reg, tracer := opt.Reg, opt.Tracer
	if reg == nil && tracer == nil {
		sc := obs.Default()
		reg, tracer = sc.Reg, sc.Tr
	}
	sampleEvery := opt.TraceSampleEvery
	if sampleEvery <= 0 {
		sampleEvery = 256
	}
	latHist := reg.Histogram("noc.latency_ns", nil)
	wallStart := time.Now()

	// Scale per-resource bandwidth so the reduced token population still
	// exercises the same tokens-per-bandwidth ratio as the real machine.
	realTokens := float64(cfg.TotalCUs()) * k.MLPPerCU
	scale := float64(opt.Tokens) / realTokens
	if scale > 1 {
		scale = 1
	}

	// Resources.
	egress := make([]*server, nChiplets)
	hbm := make([]*server, nChiplets)
	hbmSvc := make([]float64, nChiplets)
	for i := range egress {
		egress[i] = &server{}
		hbm[i] = &server{}
		perStack := cfg.HBM[i].BandwidthGBps * scale
		hbmSvc[i] = float64(units.CacheLineBytes) / (perStack * units.GB) * 1e9
	}
	egressSvc := float64(units.CacheLineBytes) / (EgressGBps * scale * units.GB) * 1e9
	// Direct point-to-point links between every ordered pair of the six
	// interposer positions, indexed [src][dst] so aggregation walks them in
	// a fixed order (a map here made the float busy-time sum, and therefore
	// LinkUtilization, depend on iteration order).
	const positions = 6
	linkSvc := float64(units.CacheLineBytes) / (LinkGBps * scale * units.GB) * 1e9
	var links [positions][positions]*server
	for i := 0; i < positions; i++ {
		for j := 0; j < positions; j++ {
			if i != j {
				links[i][j] = &server{}
			}
		}
	}

	// Link faults force detours: precompute the surviving-path position
	// sequences once. routes stays nil in the healthy case so the common
	// path below is untouched.
	var routes *[positions][positions][]int
	if len(opt.DownLinks) > 0 {
		r, err := computeRoutes(opt.Topology, opt.DownLinks)
		if err != nil {
			return Result{}, err
		}
		routes = r
	}

	sim := event.AcquireSim()
	defer event.ReleaseSim(sim)
	sim.Instrument(reg, "noc.sim")
	var (
		done, outOf int
		sumLat      float64
		sumHops     float64
		lastDone    float64
	)

	// path computes the completion time of a request issued at t from
	// srcPos to the HBM stack on chiplet dst, its hop count (interposer
	// distance), and — when link faults forced a detour — the traversed
	// position sequence (nil on the healthy direct/chain paths).
	path := func(t float64, srcPos, dst int) (float64, int, []int) {
		dstPos := interposerOf(dst)
		if cfg.Monolithic {
			// Single die: one crossbar hop, then DRAM.
			tt := t + CrossbarNs
			return hbm[dst].serve(tt, hbmSvc[dst]) + perf.HBMLatencyNs, 0, nil
		}
		tt := t + TSVHopNs // descend into the source interposer
		h := hops(srcPos, dstPos)
		var seq []int
		switch {
		case h == 0:
			// Same interposer: no link traversal.
		case routes != nil:
			// Degraded network: follow the precomputed surviving path,
			// paying each hop's router + distance-proportional wire
			// latency and queuing on each traversed link.
			seq = routes[srcPos][dstPos]
			pos := srcPos
			for _, next := range seq {
				wire := RouterHopNs + WireNsPerPosition*float64(hops(pos, next))
				tt = links[pos][next].serve(tt+wire, linkSvc)
				pos = next
			}
		case opt.Topology == Chain:
			// Hop through every adjacent interposer; each hop pays a
			// router traversal and queues on its own link.
			pos := srcPos
			for pos != dstPos {
				next := pos + 1
				if dstPos < pos {
					next = pos - 1
				}
				wire := RouterHopNs + WireNsPerPosition
				tt = links[pos][next].serve(tt+wire, linkSvc)
				pos = next
			}
		default:
			wire := RouterHopNs + WireNsPerPosition*float64(h)
			tt = links[srcPos][dstPos].serve(tt+wire, linkSvc)
		}
		tt += TSVHopNs // ascend into the destination chiplet/stack
		return hbm[dst].serve(tt, hbmSvc[dst]) + perf.HBMLatencyNs, h, seq
	}

	// Each token is a self-perpetuating request chain with at most one
	// outstanding request, so its in-flight state lives in one struct and
	// one completion closure allocated up front. Steady-state
	// issue→complete→issue scheduling then touches no allocator — the
	// per-request completion closure previously built here dominated the
	// simulation's allocation profile. The rng draw order and event
	// scheduling sequence are unchanged, so results are bit-identical to
	// the per-request-closure formulation.
	type token struct {
		t0     float64
		srcPos int
		dst    int
		h      int
		remote bool
		seq    []int
		fire   event.Handler
	}

	issue := func(tok *token) {
		t0 := sim.Now()
		fromCPU := rng.Float64() < CPUTrafficFrac
		var srcChiplet int
		var srcPos int
		if fromCPU {
			srcPos = cpuInterposers[rng.Intn(len(cpuInterposers))]
			srcChiplet = -1
		} else {
			srcChiplet = rng.Intn(nChiplets)
			srcPos = interposerOf(srcChiplet)
		}
		dst := srcChiplet
		local := !fromCPU && rng.Float64() < k.CacheLocality
		if !local {
			dst = rng.Intn(nChiplets)
		}
		remote := fromCPU || dst != srcChiplet
		var t1 float64
		var h int
		var seq []int
		if !remote && !cfg.Monolithic {
			// Chiplet-local access: straight down to the local slice.
			t1 = hbm[dst].serve(egress[dst].serve(t0, egressSvc), hbmSvc[dst]) + perf.HBMLatencyNs
		} else if !cfg.Monolithic {
			t1, h, seq = path(egress[max0(srcChiplet)].serve(t0, egressSvc), srcPos, dst)
		} else {
			t1, h, seq = path(t0, srcPos, dst)
		}
		// Return trip: fixed per-hop latency (response rides dedicated
		// response wires; their bandwidth is charged on the forward
		// path servers already, which carry the 64 B line).
		if !cfg.Monolithic && remote {
			t1 += 2 * TSVHopNs
			switch {
			case h == 0:
			case seq != nil:
				pos := srcPos
				for _, next := range seq {
					t1 += RouterHopNs + WireNsPerPosition*float64(hops(pos, next))
					pos = next
				}
			case opt.Topology == Chain:
				t1 += float64(h) * (RouterHopNs + WireNsPerPosition)
			default:
				t1 += RouterHopNs + WireNsPerPosition*float64(h)
			}
		}
		tok.t0, tok.srcPos, tok.dst = t0, srcPos, dst
		tok.h, tok.remote, tok.seq = h, remote, seq
		sim.After(t1-t0, tok.fire)
	}

	nTokens := min(opt.Tokens, opt.Requests)
	toks := make([]token, nTokens)
	for i := range toks {
		tok := &toks[i]
		tok.fire = func() {
			done++
			lat := sim.Now() - tok.t0
			sumLat += lat
			sumHops += float64(tok.h)
			if tok.remote {
				outOf++
			}
			latHist.Observe(lat)
			if tracer != nil && done%sampleEvery == 0 {
				// Simulated-time span: ts/dur in "microseconds" carry
				// simulated nanoseconds /1000 on the NoC pid.
				tracer.Complete("noc.request", "noc", tok.t0/1000, lat/1000,
					obs.PIDNoC, tok.srcPos, map[string]any{
						"hops": tok.h, "remote": tok.remote, "dst": tok.dst,
					})
			}
			if sim.Now() > lastDone {
				lastDone = sim.Now()
			}
			if done+sim.Pending() < opt.Requests {
				issue(tok)
			}
		}
		issue(tok)
	}
	if _, err := sim.RunContext(ctx, 0); err != nil {
		return Result{}, err
	}

	r := Result{Requests: done}
	if done == 0 {
		return r, nil
	}
	r.OutOfChiplet = float64(outOf) / float64(done)
	r.MeanLatencyNs = sumLat / float64(done)
	r.MeanHops = sumHops / float64(done)
	if lastDone > 0 {
		// Scale the simulated throughput back to machine size.
		bytes := float64(done) * units.CacheLineBytes
		r.SustainedGBps = bytes / (lastDone * 1e-9) / units.GB / scale
	}
	var busy float64
	nLinks := 0
	for i := 0; i < positions; i++ {
		for j := 0; j < positions; j++ {
			if links[i][j] != nil {
				busy += links[i][j].busyNs
				nLinks++
			}
		}
	}
	if lastDone > 0 && nLinks > 0 {
		r.LinkUtilization = busy / (lastDone * float64(nLinks))
	}

	if reg != nil {
		reg.Counter("noc.requests").Add(int64(done))
		reg.Counter("noc.remote_requests").Add(int64(outOf))
		reg.Gauge("noc.sustained_gbps").Set(r.SustainedGBps)
		reg.Gauge("noc.mean_latency_ns").Set(r.MeanLatencyNs)
		// Link-topology gauges only apply to chiplet runs: a monolithic
		// baseline never exercises the links and must not overwrite the
		// chiplet values with zeros.
		if !cfg.Monolithic {
			reg.Gauge("noc.mean_hops").Set(r.MeanHops)
			reg.Gauge("noc.link_utilization").Set(r.LinkUtilization)
		}
		if lastDone > 0 {
			for i := 0; i < positions; i++ {
				for j := 0; j < positions; j++ {
					if l := links[i][j]; l != nil && l.busyNs > 0 {
						reg.Gauge(fmt.Sprintf("noc.link.%d-%d.busy_frac", i, j)).
							Set(l.busyNs / lastDone)
					}
				}
			}
		}
		if wall := time.Since(wallStart).Seconds(); wall > 0 {
			reg.Gauge("noc.sim.events_per_sec").Set(float64(sim.Processed()) / wall)
		}
	}
	return r, nil
}

// nocPositions is the interposer-position count of the EHP floorplan row.
const nocPositions = 6

// computeRoutes derives, for every interposer pair, the cheapest surviving
// path (sum of per-hop router + distance-proportional wire latency) given the
// failed links. Edges follow the topology: every non-failed pair for
// PointToPoint, adjacent non-failed pairs for Chain. Neighbor order is fixed,
// and only strict improvements relax a node, so the routes — and therefore
// degraded-mode simulations — are deterministic. Returns ErrPartitioned when
// any pair is unreachable.
func computeRoutes(topo Topology, down []LinkFault) (*[nocPositions][nocPositions][]int, error) {
	var dead [nocPositions][nocPositions]bool
	for _, lf := range down {
		if lf.A < 0 || lf.A >= nocPositions || lf.B < 0 || lf.B >= nocPositions || lf.A == lf.B {
			return nil, fmt.Errorf("noc: invalid link fault %d-%d (positions are 0..%d)", lf.A, lf.B, nocPositions-1)
		}
		dead[lf.A][lf.B] = true
		dead[lf.B][lf.A] = true
	}
	edge := func(a, b int) bool {
		if a == b || dead[a][b] {
			return false
		}
		if topo == Chain {
			return hops(a, b) == 1
		}
		return true
	}
	var routes [nocPositions][nocPositions][]int
	for src := 0; src < nocPositions; src++ {
		// Dijkstra from src over at most six nodes.
		const inf = 1e18
		var dist [nocPositions]float64
		var prev [nocPositions]int
		var done [nocPositions]bool
		for i := range dist {
			dist[i] = inf
			prev[i] = -1
		}
		dist[src] = 0
		for {
			u := -1
			for i := 0; i < nocPositions; i++ {
				if !done[i] && dist[i] < inf && (u < 0 || dist[i] < dist[u]) {
					u = i
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			for v := 0; v < nocPositions; v++ {
				if !edge(u, v) {
					continue
				}
				d := dist[u] + RouterHopNs + WireNsPerPosition*float64(hops(u, v))
				if d < dist[v] {
					dist[v] = d
					prev[v] = u
				}
			}
		}
		for dst := 0; dst < nocPositions; dst++ {
			if dst == src {
				continue
			}
			if dist[dst] >= inf {
				return nil, ErrPartitioned
			}
			var seq []int
			for at := dst; at != src; at = prev[at] {
				seq = append(seq, at)
			}
			for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
				seq[i], seq[j] = seq[j], seq[i]
			}
			routes[src][dst] = seq
		}
	}
	return &routes, nil
}

func max0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// Comparison holds the Fig. 7 quantities for one kernel.
type Comparison struct {
	Kernel         string
	OutOfChiplet   float64 // fraction of traffic leaving the source chiplet
	PerfVsMonolith float64 // chiplet-EHP performance / monolithic-EHP performance
	ChipletLatNs   float64
	MonoLatNs      float64
}

// Compare runs the chiplet and monolithic simulations for a kernel and
// derives the performance ratio by feeding each organization's measured
// loaded latency and sustainable bandwidth into the roofline model.
func Compare(cfg *arch.NodeConfig, k workload.Kernel, seed int64) Comparison {
	c, _ := CompareContext(context.Background(), cfg, k, seed)
	return c
}

// CompareContext is Compare with cooperative cancellation threaded through
// both underlying event-driven simulations.
func CompareContext(ctx context.Context, cfg *arch.NodeConfig, k workload.Kernel, seed int64) (Comparison, error) {
	chiplet, err := SimulateContext(ctx, cfg, k, Options{Seed: seed})
	if err != nil {
		return Comparison{}, err
	}
	mono, err := SimulateContext(ctx, arch.Monolithic(cfg), k, Options{Seed: seed})
	if err != nil {
		return Comparison{}, err
	}
	return CompareResults(cfg, k, chiplet, mono), nil
}

// CompareResults derives the Fig. 7 comparison from k's two simulations:
// chiplet on cfg and mono on arch.Monolithic(cfg). Callers that already
// hold both runs build the comparison without simulating again.
func CompareResults(cfg *arch.NodeConfig, k workload.Kernel, chiplet, mono Result) Comparison {
	monoCfg := arch.Monolithic(cfg)
	pc := perf.Estimate(cfg, k, chiplet.Env(cfg))
	pm := perf.Estimate(monoCfg, k, mono.Env(monoCfg))

	c := Comparison{
		Kernel:       k.Name,
		OutOfChiplet: chiplet.OutOfChiplet,
		ChipletLatNs: chiplet.MeanLatencyNs,
		MonoLatNs:    mono.MeanLatencyNs,
	}
	if pm.TFLOPs > 0 {
		c.PerfVsMonolith = pc.TFLOPs / pm.TFLOPs
		if c.PerfVsMonolith > 1 {
			c.PerfVsMonolith = 1
		}
	}
	return c
}

// Env converts a simulation result on cfg into the analytic model's memory
// environment: measured loaded latency, and bandwidth capped by what the
// (possibly degraded) network sustained. It is the one coupling of the
// detailed simulator to perf.Estimate, shared by Compare, the fault
// surface and detailed simulate requests.
func (r Result) Env(cfg *arch.NodeConfig) perf.MemEnv {
	bw := cfg.InPackageBWTBps()
	if s := r.SustainedGBps / 1000; s > 0 && s < bw {
		bw = s
	}
	eff := 0.0
	if bw > 0 {
		eff = float64(cfg.TotalCUs()) * cfg.GPUFreqMHz() * 1e6 / (bw * 1e12)
	}
	return perf.MemEnv{BWTBps: bw, LatencyNs: r.MeanLatencyNs, EffOpsPerByte: eff}
}
