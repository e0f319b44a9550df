// Command enabench converts `go test -bench` text output into a JSON
// summary, seeding the repo's performance trajectory: each run records the
// per-benchmark ns/op, B/op and allocs/op so successive BENCH_<date>.json
// files can be diffed for regressions.
//
// Usage:
//
//	go test -bench=. -benchmem | enabench -out BENCH_2026-08-06.json
//	enabench -in bench_output.txt            # print JSON to stdout
//	enabench -compare OLD.json NEW.json      # diff two snapshots
//
// Compare mode prints per-benchmark speedups and applies a ±10% wall-time
// gate to the benchmarks named by -gate (the repo's guarded hot paths).
// Gate violations are reported but exit 0 unless -strict is set, so `make
// verify` can surface regressions as a soft warning while a dedicated CI
// lane can hard-fail.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Summary is the emitted document.
type Summary struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []Result `json:"benchmarks"`
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkSimulateNode-8   200000   6170 ns/op   1424 B/op   18 allocs/op
//
// Returns false for non-benchmark lines (headers, PASS, logs).
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	name := fields[0]
	procs := 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			procs = p
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Procs: procs, Iterations: iters}
	// The remainder is value/unit pairs: "6170 ns/op 1424 B/op 18 allocs/op".
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(v, 64); err != nil {
				return Result{}, false
			}
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	return r, true
}

func parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if res, ok := parseLine(sc.Text()); ok {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// defaultGate lists the benchmarks held to the ±10% regression gate: the
// thermal-dominated figures, the DSE/TableII sweeps, the per-simulation unit
// of work, the event-driven NoC simulator, the inter-node fabric
// (collective replay plus the machine-scale curve sweep), the DL
// inference path (serving scenario plus the analytic GEMM sweep), the
// service tier (persistent-store round trip, sharded sweep fan-out, and
// the cached-simulate HTTP hot path), and the expanded-space exploration
// pair (exhaustive baseline and the surrogate explorer, whose ns/op ratio
// is the sample-efficiency headline).
const defaultGate = "BenchmarkFigure10,BenchmarkFigure11,BenchmarkTable2,BenchmarkSimulateNode,BenchmarkNoCSimulation,BenchmarkFabricReplay,BenchmarkFabricScaling,BenchmarkInferenceScenario,BenchmarkGEMMSweep,BenchmarkStoreRoundTrip,BenchmarkShardedExplore,BenchmarkServiceSimulateHot,BenchmarkExpandedExplore,BenchmarkSurrogateExplore"

// gateTolerance is the allowed fractional wall-time regression on gated
// benchmarks before compare flags them.
const gateTolerance = 0.10

// readSummary loads one BENCH_*.json document.
func readSummary(path string) (Summary, error) {
	var s Summary
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compare diffs two snapshots and returns the gated benchmarks that
// regressed beyond the tolerance. Benchmarks present in only one snapshot
// get explicit "added"/"removed" rows — a silently vanished benchmark looks
// exactly like a passing gate otherwise, so a removed gated benchmark also
// counts as a regression.
func compare(w io.Writer, old, new Summary, gate map[string]bool) []string {
	oldBy := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		oldBy[r.Name] = r
	}
	newNames := make(map[string]bool, len(new.Benchmarks))
	var regressions []string
	fmt.Fprintf(w, "%-32s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, nr := range new.Benchmarks {
		newNames[nr.Name] = true
		or, ok := oldBy[nr.Name]
		if !ok || or.NsPerOp == 0 {
			fmt.Fprintf(w, "%-32s %14s %14.0f %8s\n", nr.Name, "-", nr.NsPerOp, "added")
			continue
		}
		delta := nr.NsPerOp/or.NsPerOp - 1
		mark := ""
		if gate[nr.Name] {
			mark = " [gated]"
			if delta > gateTolerance {
				mark = " [REGRESSION]"
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", nr.Name, or.NsPerOp, nr.NsPerOp, delta*100))
			}
		}
		fmt.Fprintf(w, "%-32s %14.0f %14.0f %+7.1f%%%s\n", nr.Name, or.NsPerOp, nr.NsPerOp, delta*100, mark)
	}
	for _, or := range old.Benchmarks {
		if newNames[or.Name] {
			continue
		}
		mark := ""
		if gate[or.Name] {
			mark = " [REGRESSION]"
			regressions = append(regressions,
				fmt.Sprintf("%s: gated benchmark removed (was %.0f ns/op)", or.Name, or.NsPerOp))
		}
		fmt.Fprintf(w, "%-32s %14.0f %14s %8s%s\n", or.Name, or.NsPerOp, "-", "removed", mark)
	}
	return regressions
}

func main() {
	in := flag.String("in", "", "read bench output from this file (default: stdin)")
	out := flag.String("out", "", "write the JSON summary to this file (default: stdout)")
	cmp := flag.Bool("compare", false, "compare two JSON snapshots: enabench -compare OLD.json NEW.json")
	gate := flag.String("gate", defaultGate, "comma-separated benchmarks held to the ±10% gate in compare mode")
	strict := flag.Bool("strict", false, "exit non-zero when a gated benchmark regresses")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("compare mode wants exactly two files: enabench -compare OLD.json NEW.json"))
		}
		oldSum, err := readSummary(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		newSum, err := readSummary(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		gated := map[string]bool{}
		for _, name := range strings.Split(*gate, ",") {
			if name = strings.TrimSpace(name); name != "" {
				gated[name] = true
			}
		}
		fmt.Printf("enabench: comparing %s (%s) -> %s (%s)\n", flag.Arg(0), oldSum.Date, flag.Arg(1), newSum.Date)
		regressions := compare(os.Stdout, oldSum, newSum, gated)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "enabench: WARNING: gated regression:", r)
		}
		if len(regressions) > 0 && *strict {
			os.Exit(1)
		}
		return
	}

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		src = f
	}
	results, err := parse(src)
	if err != nil {
		fail(err)
	}
	if len(results) == 0 {
		fail(fmt.Errorf("no benchmark results found in input"))
	}
	sum := Summary{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: results,
	}

	dst := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fail(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "enabench: wrote %d benchmark results to %s\n", len(results), *out)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "enabench:", err)
	os.Exit(1)
}
