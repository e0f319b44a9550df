package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// submitScale posts one scale request, asserts the 202 contract, and waits
// for the job's terminal state.
func submitScale(t *testing.T, ts *httptest.Server, req map[string]any) JobView {
	t.Helper()
	c := ts.Client()
	resp, b := doJSON(t, c, "POST", ts.URL+"/v1/scale", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202: %s", resp.StatusCode, b)
	}
	var wrap struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(b, &wrap); err != nil {
		t.Fatalf("unmarshal submit: %v", err)
	}
	if wrap.Job.ID == "" || wrap.Job.Kind != "scale" {
		t.Fatalf("submit view = %+v", wrap.Job)
	}
	return pollJob(t, c, ts.URL+"/v1/jobs/"+wrap.Job.ID, 60*time.Second)
}

// scaleResultOf re-marshals a terminal job's result into the typed form.
func scaleResultOf(t *testing.T, final JobView) ScaleResult {
	t.Helper()
	if final.State != JobDone {
		t.Fatalf("job state = %s (error %q), want done", final.State, final.Error)
	}
	rb, _ := json.Marshal(final.Result)
	var res ScaleResult
	if err := json.Unmarshal(rb, &res); err != nil {
		t.Fatalf("result unmarshal: %v", err)
	}
	return res
}

func TestScaleJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	res := scaleResultOf(t, submitScale(t, ts, map[string]any{
		"kernel":   "CoMD",
		"topology": "torus",
		"nodes":    []int{1, 8, 64},
		"mode":     "weak",
	}))
	if res.Kernel != "CoMD" || res.Topology != "torus" || res.Mode != "weak" {
		t.Fatalf("result header = %+v", res)
	}
	if res.NodeTFLOPs <= 0 {
		t.Fatalf("node rate %v must be positive", res.NodeTFLOPs)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	for i, pt := range res.Points {
		if pt.Efficiency <= 0 || pt.Efficiency > 1 {
			t.Errorf("point %d efficiency %v out of (0,1]", i, pt.Efficiency)
		}
		if d := math.Abs(pt.DeliveredEF - pt.IdealEF*pt.Efficiency); d > 1e-9 {
			t.Errorf("point %d delivered %v inconsistent with ideal*eff %v", i, pt.DeliveredEF, pt.IdealEF*pt.Efficiency)
		}
	}
	if res.Points[0].Nodes != 1 || res.Points[0].Efficiency != 1 {
		t.Errorf("single node must be perfectly efficient: %+v", res.Points[0])
	}
}

// An ideal fabric must reproduce the §V-F arithmetic: efficiency exactly 1
// at every size, delivered == ideal.
func TestScaleIdealFabricMatchesProjection(t *testing.T) {
	_, ts := newTestServer(t)

	res := scaleResultOf(t, submitScale(t, ts, map[string]any{
		"kernel": "HPGMG",
		"nodes":  []int{1, 50, 1000},
		"ideal":  true,
	}))
	for i, pt := range res.Points {
		if pt.Efficiency != 1 {
			t.Errorf("ideal point %d efficiency = %v, want exactly 1", i, pt.Efficiency)
		}
		if d := math.Abs(pt.DeliveredEF - pt.IdealEF); d > 1e-12*math.Abs(pt.IdealEF) {
			t.Errorf("ideal point %d delivered %v != ideal %v", i, pt.DeliveredEF, pt.IdealEF)
		}
	}
}

// A node fault mask reroutes collectives and reports degraded efficiency;
// the degraded machine is never faster than the healthy one.
func TestScaleWithNodeFaults(t *testing.T) {
	_, ts := newTestServer(t)

	res := scaleResultOf(t, submitScale(t, ts, map[string]any{
		"kernel":     "CoMD",
		"topology":   "torus",
		"nodes":      []int{64},
		"fault_mask": "node:2",
		"seed":       7,
	}))
	if res.FaultMask != "node:2" || res.Seed != 7 {
		t.Fatalf("fault annotations = %q/%d", res.FaultMask, res.Seed)
	}
	pt := res.Points[0]
	if pt.FailedNodes != 2 {
		t.Fatalf("failed nodes = %d, want 2", pt.FailedNodes)
	}
	if pt.Partitioned {
		t.Fatalf("2 dead nodes must not partition a 4x4x4 torus: %+v", pt)
	}
	if pt.DegradedEfficiency <= 0 || pt.DegradedEfficiency > pt.Efficiency {
		t.Errorf("degraded efficiency %v out of (0, healthy %v]", pt.DegradedEfficiency, pt.Efficiency)
	}
}

// Killing every node but at most one is a partitioned answer, not an error:
// the job still completes and reports the dead machine.
func TestScaleFaultsExhaustMachine(t *testing.T) {
	_, ts := newTestServer(t)

	res := scaleResultOf(t, submitScale(t, ts, map[string]any{
		"kernel":     "CoMD",
		"nodes":      []int{2},
		"fault_mask": "node:2",
	}))
	pt := res.Points[0]
	if !pt.Partitioned {
		t.Errorf("killing the whole 2-node machine must partition: %+v", pt)
	}
	if pt.DegradedEfficiency != 0 {
		t.Errorf("partitioned point kept efficiency %v", pt.DegradedEfficiency)
	}
}

func TestScaleRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()

	cases := []struct {
		name string
		body map[string]any
		want string
	}{
		{"missing kernel", map[string]any{"topology": "torus"}, "kernel is required"},
		{"unknown kernel", map[string]any{"kernel": "nope"}, "unknown"},
		{"unknown topology", map[string]any{"kernel": "CoMD", "topology": "hypercube"}, "unknown topology"},
		{"unknown mode", map[string]any{"kernel": "CoMD", "mode": "sideways"}, "unknown mode"},
		{"zero nodes", map[string]any{"kernel": "CoMD", "nodes": []int{0}}, "non-positive node count"},
		{"huge nodes", map[string]any{"kernel": "CoMD", "nodes": []int{1 << 21}}, "exceeds the limit"},
		{"too many sizes", map[string]any{"kernel": "CoMD",
			"nodes": []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}}, "per-request limit"},
		{"negative link", map[string]any{"kernel": "CoMD", "link_gbps": -1}, "negative link"},
		{"negative timeout", map[string]any{"kernel": "CoMD", "timeout_sec": -1}, "negative timeout_sec"},
		{"timeout past the longest deadline", map[string]any{"kernel": "CoMD", "timeout_sec": 1e10}, "timeout_sec"},
		{"huge timeout", map[string]any{"kernel": "CoMD", "timeout_sec": 1e300}, "timeout_sec"},
		{"local fault terms", map[string]any{"kernel": "CoMD", "fault_mask": "gpu:1"}, "non-node terms"},
		{"mixed fault terms", map[string]any{"kernel": "CoMD", "nodes": []int{64},
			"fault_mask": "node:1,hbm@0"}, "non-node terms"},
		{"degraded too large", map[string]any{"kernel": "CoMD", "nodes": []int{100000},
			"fault_mask": "node:1"}, "limited to 4096 nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := doJSON(t, c, "POST", ts.URL+"/v1/scale", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", resp.StatusCode, b)
			}
			if !strings.Contains(string(b), tc.want) {
				t.Errorf("body %q missing %q", b, tc.want)
			}
		})
	}
}

// Equivalent spellings (defaults omitted vs explicit, permuted node lists)
// must share one cache key and one execution.
func TestScaleCanonicalDedup(t *testing.T) {
	s, ts := newTestServer(t)

	a := scaleResultOf(t, submitScale(t, ts, map[string]any{
		"kernel": "MaxFlops", "nodes": []int{64, 8, 8, 1},
	}))
	b := scaleResultOf(t, submitScale(t, ts, map[string]any{
		"kernel": "MaxFlops", "topology": "torus", "mode": "weak", "nodes": []int{1, 8, 64},
	}))
	if a.Key != b.Key {
		t.Fatalf("equivalent requests got distinct keys:\n%s\n%s", a.Key, b.Key)
	}
	snap := s.Registry().Snapshot()
	if h, m := snap.Counters["service.cache.hits"], snap.Counters["service.cache.misses"]; h < 1 || m != 1 {
		t.Errorf("cache hits/misses = %d/%d, want >=1 hit over exactly 1 miss", h, m)
	}
}
