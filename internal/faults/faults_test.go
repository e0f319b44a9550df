package faults

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ena/internal/arch"
	"ena/internal/core"
	"ena/internal/obs"
	"ena/internal/workload"
)

func TestParseMaskCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"gpu:2", "gpu:2"},
		{" GPU:1 , gpu:1 ", "gpu:2"},
		{"hbm@0,gpu@3", "gpu@3,hbm@0"},
		{"gpu@3,gpu@3", "gpu@3"},
		{"link@5-0", "link@0-5"},
		{"ext@1.2,cpu:1,gpu@0", "gpu@0,cpu:1,ext@1.2"},
		{"link:1,gpu:1,hbm@7", "gpu:1,hbm@7,link:1"},
	}
	for _, c := range cases {
		m, err := ParseMask(c.in)
		if err != nil {
			t.Errorf("ParseMask(%q): %v", c.in, err)
			continue
		}
		if got := m.String(); got != c.want {
			t.Errorf("ParseMask(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical form must round-trip.
		m2, err := ParseMask(m.String())
		if err != nil || m2.String() != m.String() {
			t.Errorf("round-trip of %q failed: %q, %v", c.in, m2.String(), err)
		}
	}
}

func TestParseMaskErrors(t *testing.T) {
	for _, in := range []string{"gpu", "gpu:", "gpu:0", "gpu:-1", "gpu@", "gpu@-1",
		"disk:1", "ext@1", "ext@a.b", "link@3-3", "link@x-y", "gpu=2"} {
		if _, err := ParseMask(in); err == nil {
			t.Errorf("ParseMask(%q) should fail", in)
		}
	}
}

func TestApplyGPUFaultRemovesPair(t *testing.T) {
	base := arch.BestMeanEHP()
	inj, err := Apply(base, MustMask("gpu@3"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Config.GPU) != 7 || len(inj.Config.HBM) != 7 {
		t.Errorf("gpu fault should drop one chiplet+stack pair: %d GPU, %d HBM", len(inj.Config.GPU), len(inj.Config.HBM))
	}
	if inj.Config.TotalCUs() != base.TotalCUs()-base.GPU[3].CUs {
		t.Errorf("CUs %d, want %d", inj.Config.TotalCUs(), base.TotalCUs()-base.GPU[3].CUs)
	}
	if inj.Config.InPackageBWTBps() >= base.InPackageBWTBps() {
		t.Error("bandwidth must shrink with the stack")
	}
	if err := inj.Config.Validate(); err != nil {
		t.Errorf("degraded config invalid: %v", err)
	}
}

func TestApplyHBMFaultKeepsCompute(t *testing.T) {
	base := arch.BestMeanEHP()
	inj, err := Apply(base, MustMask("hbm@0"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Config.TotalCUs() != base.TotalCUs() {
		t.Errorf("HBM fault must preserve compute: %d CUs, want %d", inj.Config.TotalCUs(), base.TotalCUs())
	}
	if got, want := inj.Config.InPackageBWTBps(), base.InPackageBWTBps()*7/8; got > want*1.001 || got < want*0.999 {
		t.Errorf("bandwidth %.3f, want ~%.3f", got, want)
	}
	if err := inj.Config.Validate(); err != nil {
		t.Errorf("degraded config invalid: %v", err)
	}
}

func TestApplyExtFaultTrunculatesChain(t *testing.T) {
	base := arch.BestMeanEHP()
	inj, err := Apply(base, MustMask("ext@2.1"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(inj.Config.Ext[2].Modules); got != 1 {
		t.Errorf("chain 2 should keep only the module before the fault, has %d", got)
	}
	if got := len(inj.Config.Ext[0].Modules); got != 4 {
		t.Errorf("chain 0 untouched, has %d modules", got)
	}
	if inj.Config.ExtCapacityGB() >= base.ExtCapacityGB() {
		t.Error("external capacity must shrink")
	}
}

func TestApplyDeterministicAndNested(t *testing.T) {
	base := arch.BestMeanEHP()
	a, err := Apply(base, MustMask("gpu:3"), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Apply(base, MustMask("gpu:3"), 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Resolved.String() != b.Resolved.String() {
		t.Errorf("same (mask, seed) must pick the same victims: %q vs %q", a.Resolved, b.Resolved)
	}
	if !reflect.DeepEqual(a.Config, b.Config) {
		t.Error("degraded configs must be identical")
	}
	// Different seed, (almost surely) different victims for this seed pair.
	c, err := Apply(base, MustMask("gpu:3"), 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Resolved.String() == c.Resolved.String() {
		t.Logf("seeds 42/43 coincide (possible but unlikely): %q", a.Resolved)
	}
	// Nested: gpu:2's victims are a subset of gpu:3's at the same seed.
	two, err := Apply(base, MustMask("gpu:2"), 42)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, d := range a.Disabled {
		set[d] = true
	}
	for _, d := range two.Disabled {
		if !set[d] {
			t.Errorf("progressive sweep not nested: %v not in %v", d, a.Disabled)
		}
	}
}

func TestApplyResolvedMaskReproduces(t *testing.T) {
	base := arch.BestMeanEHP()
	inj, err := Apply(base, MustMask("gpu:2,hbm:1,ext:2,link:1,cpu:1"), 7)
	if err != nil {
		t.Fatal(err)
	}
	// Re-applying the fully-targeted resolved mask (any seed) must rebuild
	// the same degraded node.
	re, err := Apply(base, inj.Resolved, 999)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inj.Config, re.Config) {
		t.Errorf("resolved mask did not reproduce:\n%+v\nvs\n%+v", inj.Config, re.Config)
	}
	if len(inj.DownLinks) != 1 || len(re.DownLinks) != 1 || inj.DownLinks[0] != re.DownLinks[0] {
		t.Errorf("down links differ: %v vs %v", inj.DownLinks, re.DownLinks)
	}
}

func TestApplyNodeDead(t *testing.T) {
	base := arch.BestMeanEHP()
	if _, err := Apply(base, MustMask("gpu:8"), 1); err == nil {
		t.Error("killing every GPU chiplet must fail")
	}
	if _, err := Apply(base, MustMask("gpu:9"), 1); err == nil {
		t.Error("more faults than chiplets must fail")
	}
	if _, err := Apply(base, MustMask("cpu:8"), 1); err == nil {
		t.Error("killing every CPU chiplet must fail")
	}
	if _, err := Apply(base, MustMask("gpu@8"), 1); err == nil {
		t.Error("out-of-range target must fail")
	}
}

func TestDegradedPerformanceMonotone(t *testing.T) {
	base := arch.BestMeanEHP()
	k := workload.MaxFlops()
	prev := core.Simulate(base, k, core.Options{}).Perf.TFLOPs
	for n := 1; n <= 4; n++ {
		inj, err := Apply(base, Mask{Entries: []Entry{{Comp: GPUChiplet, Count: n}}}, 5)
		if err != nil {
			t.Fatal(err)
		}
		got := core.Simulate(inj.Config, k, core.Options{}).Perf.TFLOPs
		if got >= prev {
			t.Errorf("%d GPU faults: %.2f TFLOP/s, not below %.2f", n, got, prev)
		}
		prev = got
	}
}

func TestResilienceSurface(t *testing.T) {
	base := arch.BestMeanEHP()
	s, err := ResilienceSurface(context.Background(), base, workload.CoMD(), GPUChiplet, SurfaceOptions{MaxFaults: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("want 4 points (healthy + 3), got %d", len(s.Points))
	}
	if s.Points[0].RelPerf != 1 || s.Points[0].Faults != 0 {
		t.Errorf("step 0 must be the healthy baseline: %+v", s.Points[0])
	}
	for i := 1; i < len(s.Points); i++ {
		p := s.Points[i]
		if p.RelPerf >= s.Points[i-1].RelPerf {
			t.Errorf("step %d: rel perf %.3f not below step %d's %.3f", i, p.RelPerf, i-1, s.Points[i-1].RelPerf)
		}
		if p.RelPower >= 1 {
			t.Errorf("step %d: dead silicon should lower power, rel %.3f", i, p.RelPower)
		}
		if p.Mask == "" {
			t.Errorf("step %d: missing resolved mask", i)
		}
	}
	// Determinism: the whole surface reproduces bit-identically.
	s2, err := ResilienceSurface(context.Background(), base, workload.CoMD(), GPUChiplet, SurfaceOptions{MaxFaults: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Error("seeded surface must be bit-identical across invocations")
	}
}

func TestResilienceSurfaceStopsWhenOutOfUnits(t *testing.T) {
	base := arch.BestMeanEHP()
	s, err := ResilienceSurface(context.Background(), base, workload.CoMD(), GPUChiplet, SurfaceOptions{MaxFaults: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 8 chiplets, at least one must survive: healthy + up to 7 faults.
	if len(s.Points) != 8 {
		t.Errorf("surface should stop at 7 faults (8 points), got %d", len(s.Points))
	}
}

func TestResilienceSurfaceDetailedLinkFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed NoC simulation")
	}
	base := arch.BestMeanEHP()
	s, err := ResilienceSurface(context.Background(), base, workload.LULESH(), NoCLink,
		SurfaceOptions{MaxFaults: 2, Seed: 3, Detailed: true, DetailedRequests: 8_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("want 3 points, got %d", len(s.Points))
	}
	for i, p := range s.Points {
		if !p.Partitioned && p.MeanLatencyNs <= 0 {
			t.Errorf("step %d: missing detailed latency", i)
		}
	}
	// Link faults must not change the analytic config at all — only the
	// detailed measurements move.
	if s.Points[1].CUs != s.Points[0].CUs || s.Points[1].BWTBps != s.Points[0].BWTBps {
		t.Error("link faults must not alter compute/memory provisioning")
	}
}

func TestChaosDisabledNil(t *testing.T) {
	var c *Chaos
	if c.ShouldPanic() || c.Latency() != 0 {
		t.Error("nil chaos must inject nothing")
	}
	c.Stall(context.Background()) // must not panic
}

func TestChaosInjectsAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewChaos(ChaosConfig{Seed: 1, PanicProb: 1, LatencyProb: 1,
		MaxLatency: time.Microsecond, StallProb: 1, MaxStall: time.Microsecond}, reg)
	if !c.ShouldPanic() {
		t.Error("prob 1 must fire")
	}
	if c.Latency() <= 0 {
		t.Error("latency injection must fire")
	}
	c.Stall(context.Background())
	for _, name := range []string{"faults.chaos.panics",
		"faults.chaos.latencies", "faults.chaos.stalls"} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("counter %s not incremented", name)
		}
	}
}
