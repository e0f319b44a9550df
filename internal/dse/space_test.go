package dse

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"ena/internal/arch"
	"ena/internal/workload"
)

func TestSpaceValidate(t *testing.T) {
	ok := DefaultSpace()
	if err := ok.Validate(); err != nil {
		t.Fatalf("default space invalid: %v", err)
	}
	expanded := ok
	expanded.GPUChiplets = []int{4, 8}
	expanded.HBMStackGBs = []float64{16, 32}
	expanded.ExtModules = []int{2, 4}
	if err := expanded.Validate(); err != nil {
		t.Fatalf("expanded space invalid: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Space)
		want string
	}{
		{"empty cus", func(s *Space) { s.CUs = nil }, "is empty"},
		{"empty freq", func(s *Space) { s.FreqsMHz = nil }, "is empty"},
		{"empty bw", func(s *Space) { s.BWsTBps = nil }, "is empty"},
		{"dup cus", func(s *Space) { s.CUs = []int{320, 320} }, "duplicate"},
		{"dup freq", func(s *Space) { s.FreqsMHz = []float64{1000, 1000} }, "duplicate"},
		{"zero bw", func(s *Space) { s.BWsTBps = []float64{0, 3} }, "non-positive"},
		{"negative cus", func(s *Space) { s.CUs = []int{-64} }, "non-positive"},
		{"nan hbm", func(s *Space) { s.HBMStackGBs = []float64{math.NaN()} }, "non-positive"},
		{"inf freq", func(s *Space) { s.FreqsMHz = []float64{math.Inf(1)} }, "non-finite"},
		{"dup chiplets", func(s *Space) { s.GPUChiplets = []int{8, 8} }, "duplicate"},
		{"zero extmod", func(s *Space) { s.ExtModules = []int{0} }, "non-positive"},
		{"huge chiplets", func(s *Space) { s.GPUChiplets = []int{8, arch.MaxCUsPerNode + 1} }, "exceeds the limit of 384"},
		{"huge extmod", func(s *Space) { s.ExtModules = []int{1 << 50} }, "exceeds the limit of 16"},
		{"huge freq", func(s *Space) { s.FreqsMHz = []float64{1000, 1e300} }, `"freq" value 1e+300 exceeds the limit of 4000`},
		{"tiny freq", func(s *Space) { s.FreqsMHz = []float64{1e-300} }, `"freq" value 1e-300 is below the limit of 1`},
		{"huge bw", func(s *Space) { s.BWsTBps = []float64{arch.MaxInPackageBWTBps + 1} }, `"bw" value 65 exceeds the limit of 64`},
		{"tiny bw", func(s *Space) { s.BWsTBps = []float64{1e-300, 3} }, `"bw" value 1e-300 is below the limit of 0.001`},
		{"too many points", func(s *Space) { s.HBMStackGBs = seq(MaxSpacePoints/s.Size() + 1) }, "more than 131072 points"},
		// Axes whose length product is 2^64 must not wrap round to a
		// count that passes (Size() would return 0 here).
		{"overflowing product", func(s *Space) {
			s.CUs, s.FreqsMHz, s.BWsTBps, s.HBMStackGBs = ints(1<<16), seq(1<<16), seq(1<<16), seq(1<<16)
		}, "more than 131072 points"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := DefaultSpace()
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// seq and ints are axes 1, 2, ..., n.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// TestSpaceValidateAcceptsLargestSpaces: the bounds leave the largest
// spaces in use valid — the 13,230-point packaging space and a full-bound
// grid of exactly MaxSpacePoints points.
func TestSpaceValidateAcceptsLargestSpaces(t *testing.T) {
	pkg := DefaultSpace()
	pkg.GPUChiplets, pkg.HBMStackGBs, pkg.ExtModules = []int{2, 4, 8}, []float64{8, 16, 32}, []int{2, 3, 4}
	full := Space{CUs: ints(1 << 7), FreqsMHz: seq(1 << 5), BWsTBps: seq(1 << 5), ExtModules: []int{arch.MaxModulesPerChain}, GPUChiplets: []int{arch.MaxCUsPerNode}}
	for _, s := range []Space{pkg, full} {
		if err := s.Validate(); err != nil {
			t.Errorf("%d-point space: %v", s.Size(), err)
		}
	}
	if full.Size() != MaxSpacePoints {
		t.Fatalf("full space has %d points, want %d", full.Size(), MaxSpacePoints)
	}
}

// TestPointValidate: a listed point obeys the axis rules of the space it
// could have come from, with zero packaging fields meaning the defaults.
func TestPointValidate(t *testing.T) {
	for _, p := range []Point{
		{CUs: 320, FreqMHz: 1000, BWTBps: 3},
		{CUs: 256, FreqMHz: 800, BWTBps: 1, GPUChiplets: arch.MaxCUsPerNode, HBMStackGB: 16, ExtModules: arch.MaxModulesPerChain},
		{CUs: 320, FreqMHz: arch.MinGPUFreqMHz, BWTBps: arch.MinInPackageBWTBps},
		{CUs: 320, FreqMHz: arch.MaxGPUFreqMHz, BWTBps: arch.MaxInPackageBWTBps},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
	for _, tc := range []struct {
		p    Point
		want string
	}{
		{Point{CUs: 0, FreqMHz: 1000, BWTBps: 3}, `"cus" has non-positive`},
		{Point{CUs: 320, FreqMHz: math.NaN(), BWTBps: 3}, `"freq" has non-positive or non-finite`},
		{Point{CUs: 320, FreqMHz: 1000, BWTBps: math.Inf(1)}, `"bw" has non-positive or non-finite`},
		{Point{CUs: 320, FreqMHz: 1e300, BWTBps: 3}, `"freq" value 1e+300 exceeds the limit of 4000`},
		{Point{CUs: 320, FreqMHz: 1000, BWTBps: 1e300}, `"bw" value 1e+300 exceeds the limit of 64`},
		{Point{CUs: 320, FreqMHz: 1000, BWTBps: 3, GPUChiplets: -1}, `"chiplets" has non-positive`},
		{Point{CUs: 320, FreqMHz: 1000, BWTBps: 3, GPUChiplets: 1 << 50}, `"chiplets" value 1125899906842624 exceeds`},
		{Point{CUs: 320, FreqMHz: 1000, BWTBps: 3, HBMStackGB: -16}, `"hbm" has non-positive`},
		{Point{CUs: 320, FreqMHz: 1000, BWTBps: 3, ExtModules: 1 << 50}, `"extmod" value 1125899906842624 exceeds`},
	} {
		if err := tc.p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Validate() = %v, want %q", tc.p, err, tc.want)
		}
	}
}

// TestDefaultSpaceEnumerationUnchanged pins the expansion's compatibility
// contract: a space without packaging axes enumerates the exact pre-expansion
// grid — same count, same order, all points in classic (zero-packaging) form.
func TestDefaultSpaceEnumerationUnchanged(t *testing.T) {
	s := DefaultSpace()
	pts := s.Points()
	if len(pts) != 490 {
		t.Fatalf("default space has %d points, want 490", len(pts))
	}
	if s.Size() != len(pts) {
		t.Fatalf("Size() = %d, want %d", s.Size(), len(pts))
	}
	if pts[0] != (Point{CUs: 192, FreqMHz: 700, BWTBps: 1}) {
		t.Fatalf("first point = %+v", pts[0])
	}
	for _, p := range pts {
		if p.expanded() {
			t.Fatalf("classic space produced expanded point %+v", p)
		}
	}
}

func TestExpandedSpaceEnumeration(t *testing.T) {
	s := Space{
		CUs:         []int{256, 320},
		FreqsMHz:    []float64{1000},
		BWsTBps:     []float64{3},
		GPUChiplets: []int{4, 8},
		HBMStackGBs: []float64{16},
		ExtModules:  []int{2, 4},
	}
	pts := s.Points()
	if len(pts) != 8 || s.Size() != 8 {
		t.Fatalf("got %d points (Size %d), want 8", len(pts), s.Size())
	}
	// Packaging axes are outermost: the chiplet axis varies slowest.
	if pts[0].GPUChiplets != 4 || pts[len(pts)-1].GPUChiplets != 8 {
		t.Fatalf("packaging axes not outermost: first %+v last %+v", pts[0], pts[len(pts)-1])
	}
}

// TestVariantPointConfig: an expanded point materializes with the requested
// packaging, and a default-packaging variant behaves like the classic config.
func TestVariantPointConfig(t *testing.T) {
	p := Point{CUs: 320, FreqMHz: 1000, BWTBps: 3, GPUChiplets: 4, HBMStackGB: 16, ExtModules: 2}
	cfg := p.Config()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("variant config invalid: %v", err)
	}
	if got := cfg.TotalCUs(); got != 320 {
		t.Errorf("TotalCUs = %d, want 320", got)
	}
	if got := cfg.InPackageBWTBps(); math.Abs(got-3) > 1e-9 {
		t.Errorf("InPackageBWTBps = %v, want 3", got)
	}

	classic := Point{CUs: 320, FreqMHz: 1000, BWTBps: 3}.Config()
	deflt := arch.EHPVariant(320, 1000, 3, 0, 0, 0)
	deflt.Name = classic.Name
	if !reflect.DeepEqual(classic, deflt) {
		t.Errorf("EHPVariant at defaults differs from EHP beyond the name")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, s := range []Space{
		DefaultSpace(),
		{
			CUs:         []int{192, 320},
			FreqsMHz:    []float64{925, 1000},
			BWsTBps:     []float64{3},
			GPUChiplets: []int{4, 8},
			HBMStackGBs: []float64{16, 32},
			ExtModules:  []int{2, 4},
		},
	} {
		spec := s.Spec()
		got, err := ParseSpace(spec)
		if err != nil {
			t.Fatalf("ParseSpace(%q): %v", spec, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("round trip of %q = %+v, want %+v", spec, got, s)
		}
	}
}

func TestParseSpaceCanonicalizes(t *testing.T) {
	s, err := ParseSpace("bw=3,1;cus=320,192;freq=1000")
	if err != nil {
		t.Fatal(err)
	}
	want := Space{CUs: []int{192, 320}, FreqsMHz: []float64{1000}, BWsTBps: []float64{1, 3}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	if s.Spec() != "cus=192,320;freq=1000;bw=1,3" {
		t.Fatalf("Spec() = %q", s.Spec())
	}
}

func TestParseSpaceRejects(t *testing.T) {
	for _, spec := range []string{
		"",
		"cus=320",                          // missing freq/bw
		"cus=320;freq=1000;bw=3;bw=4",      // repeated axis
		"cus=320;freq=1000;bw=3;turbo=9",   // unknown axis
		"cus=320,320;freq=1000;bw=3",       // duplicate value
		"cus=0;freq=1000;bw=3",             // non-positive
		"cus=320;freq=+Inf;bw=3",           // non-finite
		"cus=320;freq=NaN;bw=3",            // non-finite
		"cus=x;freq=1000;bw=3",             // unparsable
		"cus=320;freq=1000;bw=3;chiplets=", // empty packaging values
	} {
		if _, err := ParseSpace(spec); err == nil {
			t.Errorf("ParseSpace(%q) accepted, want error", spec)
		}
	}
}

// TestPerfCacheLRUBounds: the sweep store evicts least-recently-used entries
// past its cap instead of growing without bound.
func TestPerfCacheLRUBounds(t *testing.T) {
	ks := workload.Suite()[:1]
	cache := NewPerfCacheSized(2, 4)
	spaces := []Space{
		{CUs: []int{320}, FreqsMHz: []float64{1000}, BWsTBps: []float64{1}},
		{CUs: []int{320}, FreqsMHz: []float64{1000}, BWsTBps: []float64{2}},
		{CUs: []int{320}, FreqsMHz: []float64{1000}, BWsTBps: []float64{3}},
	}
	for _, s := range spaces {
		ExploreCached(s, ks, arch.NodePowerBudgetW, 0, cache)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want cap 2", cache.Len())
	}
	// The oldest sweep (spaces[0]) was evicted: re-exploring it must miss
	// (and refill), while spaces[2] — most recent — must still hit.
	if _, ok := cache.get(cacheKey(spaces[0], ks), 1); ok {
		t.Error("evicted entry still present")
	}
	if _, ok := cache.get(cacheKey(spaces[2], ks), 1); !ok {
		t.Error("most-recent entry evicted")
	}
}

// TestPointEvaluatorBitIdentical: the point-level evaluator — cold, and warm
// through the point-row cache — matches EvaluatePointContext bit-for-bit,
// and the point store respects its entry cap.
func TestPointEvaluatorBitIdentical(t *testing.T) {
	ks := workload.Suite()[:3]
	ctx := context.Background()
	cache := NewPerfCacheSized(1, 2)
	eval := NewPointEvaluator(ks, arch.NodePowerBudgetW, 0, cache)
	pts := []Point{
		{CUs: 320, FreqMHz: 1000, BWTBps: 3},
		{CUs: 256, FreqMHz: 925, BWTBps: 2, GPUChiplets: 4, HBMStackGB: 16, ExtModules: 2},
		{CUs: 384, FreqMHz: 1500, BWTBps: 7},
	}
	for round := 0; round < 2; round++ {
		for _, p := range pts {
			want, err := EvaluatePointContext(ctx, p, ks, arch.NodePowerBudgetW, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eval(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d point %v: cached evaluator diverged\n got %+v\nwant %+v", round, p, got, want)
			}
		}
	}
	if n := cache.Len(); n > 2 {
		t.Fatalf("point store holds %d entries, want <= cap 2", n)
	}
}
