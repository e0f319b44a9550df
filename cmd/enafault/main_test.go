package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestOneShotMask(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mask", "gpu:2", "-kernel", "MaxFlops"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"resolved:", "healthy", "degraded", "relative:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestOneShotJSONDeterministic(t *testing.T) {
	runJSON := func() report {
		var out, errb bytes.Buffer
		if code := run([]string{"-mask", "gpu:2,hbm:1", "-seed", "9", "-json"}, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		var r report
		if err := json.Unmarshal(out.Bytes(), &r); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, out.String())
		}
		return r
	}
	a := runJSON()
	if len(a.Disabled) != 3 {
		t.Errorf("Disabled = %v, want 3 units", a.Disabled)
	}
	b := runJSON()
	if a.Resolved != b.Resolved || a.Degraded != b.Degraded {
		t.Errorf("seeded injection not reproducible: %+v vs %+v", a, b)
	}
	if a.RelPerf >= 1 {
		t.Errorf("RelPerf = %v, want < 1 after losing chiplets", a.RelPerf)
	}
}

func TestSweepSurface(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-sweep", "gpu", "-max-faults", "2", "-kernel", "MaxFlops"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if got := strings.Count(out.String(), "\n"); got < 5 {
		t.Errorf("surface output too short:\n%s", out.String())
	}
}

// TestNodeMaskMachineReport: node terms switch the report to machine scope,
// kill exactly the asked-for nodes, and compose with local terms degrading
// the survivors.
func TestNodeMaskMachineReport(t *testing.T) {
	runJSON := func(args ...string) machineReport {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append(args, "-json"), &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		var r machineReport
		if err := json.Unmarshal(out.Bytes(), &r); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, out.String())
		}
		return r
	}

	a := runJSON("-mask", "node:2", "-nodes", "64", "-seed", "7")
	if a.Topology != "torus-4x4x4" || a.Nodes != 64 {
		t.Fatalf("topology = %s/%d", a.Topology, a.Nodes)
	}
	if len(a.FailedNodes) != 2 {
		t.Fatalf("failed nodes = %v, want 2", a.FailedNodes)
	}
	if a.RelPerf <= 0 || a.RelPerf >= 1 {
		t.Errorf("rel perf = %v, want in (0,1) after 2 node deaths", a.RelPerf)
	}
	b := runJSON("-mask", "node:2", "-nodes", "64", "-seed", "7")
	if a.RelPerf != b.RelPerf || len(b.FailedNodes) != 2 ||
		a.FailedNodes[0] != b.FailedNodes[0] || a.FailedNodes[1] != b.FailedNodes[1] {
		t.Errorf("seeded node deaths not reproducible: %+v vs %+v", a, b)
	}

	mixed := runJSON("-mask", "node@3,gpu:1", "-nodes", "27")
	if mixed.Node == nil {
		t.Fatal("mixed mask must carry the intra-node report")
	}
	if mixed.Node.Degraded.TFLOPs >= mixed.Node.Healthy.TFLOPs {
		t.Errorf("local gpu fault must weaken the node: %+v", mixed.Node)
	}
	if mixed.RelPerf >= a.RelPerf && mixed.RelPerf >= 1 {
		t.Errorf("mixed mask rel perf = %v", mixed.RelPerf)
	}
}

// TestNodeSweep: -sweep node produces the whole-node surface with its
// steady-state expectation.
func TestNodeSweep(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-sweep", "node", "-max-faults", "3", "-nodes", "27"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"whole-node failure", "torus-3x3x3", "dead nodes", "steady state"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                  // neither -mask nor -sweep
		{"-mask", "gpu:1", "-sweep", "gpu"}, // both
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-mask", "bogus:1"}, &out, &errb); code != 1 {
		t.Errorf("bad mask exit = %d, want 1", code)
	}
	// Link faults are invisible to the analytic model; requiring -detailed
	// beats silently reporting no damage.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-mask", "link@0-1"}, &out, &errb); code != 1 {
		t.Errorf("link mask without -detailed exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "-detailed") {
		t.Errorf("error should point at -detailed: %s", errb.String())
	}
}
