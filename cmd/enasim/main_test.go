package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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

// allOutputSHA256 is the sha256 of `enasim -all` stdout. Every paper figure
// and table is in that output, so a change that claims bit-identical
// results must leave it alone.
const allOutputSHA256 = "585e6620c914414d5b89bf1d19dd07d2cd8847e2cabf951ed19077b77464692d"

// TestAllOutputHash pins the whole -all output, so a figure that moves by a
// single printed digit fails the ordinary test suite.
func TestAllOutputHash(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-all"}, &out); code != 0 {
		t.Fatalf("run -all exited %d", code)
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != allOutputSHA256 {
		t.Errorf("enasim -all output sha256 = %s, want %s", got, allOutputSHA256)
	}
}
