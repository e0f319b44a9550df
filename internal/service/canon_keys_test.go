package service

import "testing"

// TestCanonKeysPinned pins the exact cache keys of representative requests.
// A key is a result's identity in the memory cache and the persistent
// store, so an edit that moves one silently turns every stored result into
// a miss. Changing a key on purpose bumps the canon's version field and
// re-records this table in the same change.
func TestCanonKeysPinned(t *testing.T) {
	simKey := func(r SimulateRequest) (string, string) {
		t.Helper()
		j, err := r.resolve()
		if err != nil {
			t.Fatalf("resolve %+v: %v", r, err)
		}
		return j.key, j.detailedKey
	}
	detailedReq := SimulateRequest{CUs: 320, FreqMHz: 1000, BWTBps: 3, Kernel: "LULESH", Detailed: true, Seed: 5}
	_, detailed := simKey(detailedReq)
	plain, _ := simKey(SimulateRequest{CUs: 320, FreqMHz: 1000, BWTBps: 3, Kernel: "CoMD"})
	masked, _ := simKey(SimulateRequest{Kernel: "CoMD", FaultMask: "gpu:2", Seed: 7})
	optioned, _ := simKey(SimulateRequest{Kernel: "SNAP", Options: SimOptions{
		MissFrac: 0.25, Policy: "hardware-cache", Optimizations: []string{"ntc", "compression"}, TempC: 70}})
	serving, _ := simKey(SimulateRequest{Kernel: "gemm:4096x4096x4096:fp16", Scenario: "serving",
		QPS: 500, Batches: "8,1,4", Requests: 300, Seed: 3})
	exploreKey := func(r ExploreRequest) string {
		t.Helper()
		j, err := r.resolve()
		if err != nil {
			t.Fatalf("resolve %+v: %v", r, err)
		}
		return j.key
	}
	scaleKey := func(r ScaleRequest) string {
		t.Helper()
		j, err := r.resolve()
		if err != nil {
			t.Fatalf("resolve %+v: %v", r, err)
		}
		return j.key
	}
	cases := []struct{ name, got, want string }{
		{"simulate plain", plain, "5330d7dcded5d68d2f18ed5752932e4b20e0983d2a83e3be0304e3867d900f12"},
		{"simulate fault mask", masked, "53dfdb540b63b498067ff133d8d5c839f51fdcbe17368c1bbf09168840b8baa8"},
		{"simulate options", optioned, "5f3a4a83926bbcadef93951f27e72bf53778285713d876e8eb94a3f8489e59af"},
		{"simulate serving DL", serving, "92d35347aebb9a463f687d3d03912fe28bbae2f678ad007b3fabfb194388c587"},
		{"simulate detailedKey", detailed, "40b0cf609bc6ade1123cb2fa9fcd330e85f5105ab22aa9847e33ad0f188837c5"},
		{"explore default grid", exploreKey(ExploreRequest{}), "c6192328d5714f07a7391b9eb237e17341a958fa5fbb0874beb6f2c17522d6ef"},
		{"explore grid", exploreKey(ExploreRequest{CUs: []int{384, 256}, FreqsMHz: []float64{1000},
			BWsTBps: []float64{3, 1}, Kernels: []string{"MaxFlops", "CoMD"}, BudgetW: 150}), "c6fbb3cae02a82e3b39f28d36d1101bebcb5f05111ca25ef1a5ce20b3d6099c3"},
		{"explore surrogate packaging", exploreKey(ExploreRequest{GPUChiplets: []int{8, 4}, HBMStackGBs: []float64{16},
			ExtModules: []int{2}, Explorer: "surrogate", EvalBudget: 8, Seed: 3}), "916e5c63511d48580a7689d226597f6afb0f0d9dd5b12ab3bfe0d85edcfe8ce7"},
		{"scale", scaleKey(ScaleRequest{Kernel: "CoMD", Topology: "torus", Nodes: []int{1000, 50}, Mode: "weak"}), "6c947b0e9b23d251e2b7ffdd92492421eed20102ff01a13c8a5b12d2a9ef83bc"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, c.got, c.want)
		}
	}
}
