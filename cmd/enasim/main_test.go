package main

import (
	"bytes"
	"context"
	"maps"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// Smoke test: a fast experiment runs end to end through the real CLI
// entrypoint and produces paper-style output.
func TestRunExperimentSmoke(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-run", "table1"}, &out); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	text := out.String()
	if len(strings.TrimSpace(text)) == 0 {
		t.Fatal("experiment produced no output")
	}
	for _, want := range []string{"Table", "CoMD"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &out); code != 0 {
		t.Fatalf("run -list exited %d", code)
	}
	if !strings.Contains(out.String(), "table1") {
		t.Errorf("-list output missing table1:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-run", "nosuch"}, &out); code != 1 {
		t.Errorf("unknown experiment exited %d, want 1", code)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if code := run(ctx, []string{"-all", "-timeout", "1h"}, &out); code != 1 {
		t.Errorf("cancelled -all exited %d, want 1", code)
	}
	// The first experiment may already be in flight when cancellation is
	// observed, but the run must stop far short of all of them.
	if n := strings.Count(out.String(), "==="); n > 2 {
		t.Errorf("cancelled run still executed %d experiments", n)
	}
}

// nocCounter matches the request counters of a -metrics report.
var nocCounter = regexp.MustCompile(`(?m)^counter\s+(noc\.(?:remote_)?requests)\s+(\d+)$`)

// TestAblationNoCCountersAcrossGOMAXPROCS: ablation-noc fans its seeded NoC
// simulations out over a GOMAXPROCS-bounded pool, and the request counters
// they add to must total the same however many run at once.
func TestAblationNoCCountersAcrossGOMAXPROCS(t *testing.T) {
	counters := func(procs int) map[string]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out bytes.Buffer
		if code := run(context.Background(), []string{"-run", "ablation-noc", "-metrics"}, &out); code != 0 {
			t.Fatalf("GOMAXPROCS=%d: run exited %d", procs, code)
		}
		got := map[string]string{}
		for _, m := range nocCounter.FindAllStringSubmatch(out.String(), -1) {
			got[m[1]] = m[2]
		}
		if len(got) != 2 {
			t.Fatalf("GOMAXPROCS=%d: report lacks noc.requests/noc.remote_requests:\n%s", procs, out.String())
		}
		return got
	}
	if one, two := counters(1), counters(2); !maps.Equal(one, two) {
		t.Errorf("counters at GOMAXPROCS=1 %v differ from GOMAXPROCS=2 %v", one, two)
	}
}
