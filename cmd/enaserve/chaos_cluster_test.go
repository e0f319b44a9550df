package main

// Chaos-cluster test: a 3-replica enaserve cluster sharing one store
// directory runs a full default-space explore; mid-sweep one replica is
// SIGKILLed — no drain, no journal flush beyond what already hit disk. The
// cluster must still finish the job and serve the bit-identical
// single-process result, with at least one shard resumed from the dead
// replica's checkpoints when the victim was the coordinator.
//
// `make chaos-cluster` loops this with seeded random victims
// (CHAOS_CLUSTER_ITERS / CHAOS_CLUSTER_SEED); plain `go test` runs one
// deterministic iteration that always kills the coordinator — the hardest
// case, since both the job's lease holder and its in-flight shards die.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"ena/internal/service"
)

// TestMain doubles as the replica entrypoint: when re-exec'd with
// ENASERVE_HELPER=1 the test binary runs the real server loop instead of the
// test suite, so the chaos test can SIGKILL genuine enaserve processes.
func TestMain(m *testing.M) {
	if os.Getenv("ENASERVE_HELPER") == "1" {
		var args []string
		if err := json.Unmarshal([]byte(os.Getenv("ENASERVE_ARGS")), &args); err != nil {
			fmt.Fprintln(os.Stderr, "helper: bad ENASERVE_ARGS:", err)
			os.Exit(2)
		}
		os.Exit(run(args))
	}
	os.Exit(m.Run())
}

type replica struct {
	name string
	base string
	cmd  *exec.Cmd
}

func startReplica(t *testing.T, name, dir, addr string, peers []string) *replica {
	t.Helper()
	args := []string{
		"-addr", addr,
		"-store-dir", dir,
		"-owner-id", name,
		"-workers", "4",
		"-lease-ttl", "750ms",
		"-adopt-interval", "250ms",
		"-chaos-eval-delay", "4ms",
		"-grace", "10s",
	}
	if len(peers) > 0 {
		args = append(args, "-peers", strings.Join(peers, ","))
	}
	argJSON, _ := json.Marshal(args)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "ENASERVE_HELPER=1", "ENASERVE_ARGS="+string(argJSON))
	var logBuf bytes.Buffer
	cmd.Stdout = &logBuf
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	r := &replica{name: name, base: "http://" + addr, cmd: cmd}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			t.Logf("--- %s log ---\n%s", name, logBuf.String())
		}
	})
	waitHealthy(t, r.base)
	return r
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", base)
}

// counterValue reads one counter off a replica's /metrics snapshot (0 when
// the replica is unreachable or the counter absent).
func counterValue(base, name string) int64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0
	}
	return snap.Counters[name]
}

type wireJob struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func getJob(base, id string) (wireJob, bool) {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return wireJob{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return wireJob{}, false
	}
	var out struct {
		Job wireJob `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return wireJob{}, false
	}
	return out.Job, true
}

func postExplore(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/explore", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explore = %d", resp.StatusCode)
	}
	var out struct {
		Job wireJob `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Job.ID
}

// goldenExplore computes the single-process default-space result in-process
// (no store, no peers, no chaos) and returns its wire encoding.
func goldenExplore(t *testing.T) json.RawMessage {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := service.New(ctx, service.Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := postExplore(t, ts.URL)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := getJob(ts.URL, id); ok && j.State == "done" {
			drainCtx, dc := context.WithTimeout(context.Background(), 5*time.Second)
			defer dc()
			srv.Drain(drainCtx)
			return j.Result
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("golden explore never finished")
	return nil
}

func TestChaosClusterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a 3-process cluster; skipped in -short")
	}
	iters, _ := strconv.Atoi(os.Getenv("CHAOS_CLUSTER_ITERS"))
	if iters < 1 {
		iters = 1
	}
	seed, _ := strconv.ParseInt(os.Getenv("CHAOS_CLUSTER_SEED"), 10, 64)
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	golden := goldenExplore(t)

	for it := 0; it < iters; it++ {
		// Iteration 0 always kills the coordinator (the replica holding the
		// job's lease); later iterations draw a seeded random victim, which
		// also exercises worker-loss shard failover.
		victim := 0
		if it > 0 {
			victim = rng.Intn(3)
		}
		t.Run(fmt.Sprintf("iter%d_kill%d", it, victim), func(t *testing.T) {
			runChaosIteration(t, victim, golden)
		})
	}
}

func runChaosIteration(t *testing.T, victim int, golden json.RawMessage) {
	dir := t.TempDir()
	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	reps := make([]*replica, 3)
	for i := range reps {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, "http://"+a)
			}
		}
		reps[i] = startReplica(t, fmt.Sprintf("replica-%d", i), dir, addrs[i], peers)
	}
	coord := reps[0]

	id := postExplore(t, coord.base)

	// Kill the victim only once the sweep has durably checkpointed progress,
	// so the survivors have something to resume from.
	killDeadline := time.Now().Add(30 * time.Second)
	for counterValue(coord.base, "jobs.checkpoints") < 1 {
		if time.Now().After(killDeadline) {
			t.Fatal("no checkpoint ever written")
		}
		if j, ok := getJob(coord.base, id); ok && j.State == "done" {
			t.Fatal("job finished before the kill window; lower the eval delay")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := reps[victim].cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	reps[victim].cmd.Wait()
	t.Logf("SIGKILLed %s mid-sweep", reps[victim].name)

	// The job must still complete, visible from any surviving replica.
	var final wireJob
	doneDeadline := time.Now().Add(90 * time.Second)
	for {
		var got bool
		for i, r := range reps {
			if i == victim {
				continue
			}
			if j, ok := getJob(r.base, id); ok && j.State == "done" {
				final, got = j, true
				break
			}
		}
		if got {
			break
		}
		if time.Now().After(doneDeadline) {
			t.Fatal("job never completed after the kill")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The merged result is bit-identical to the single-process golden: same
	// canonical JSON, same best-mean pin (320 CUs / 1000 MHz / 3 TB/s).
	var gotNorm, wantNorm any
	if err := json.Unmarshal(final.Result, &gotNorm); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &wantNorm); err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(gotNorm)
	wb, _ := json.Marshal(wantNorm)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("cluster result differs from single-process golden:\ngot  %s\nwant %s", gb, wb)
	}
	var res struct {
		BestMean struct {
			CUs     int     `json:"cus"`
			FreqMHz float64 `json:"freq_mhz"`
			BWTBps  float64 `json:"bw_tbps"`
		} `json:"best_mean"`
	}
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.BestMean.CUs != 320 || res.BestMean.FreqMHz != 1000 || res.BestMean.BWTBps != 3 {
		t.Fatalf("best_mean = %+v, want 320 CUs / 1000 MHz / 3 TB/s", res.BestMean)
	}

	// When the coordinator died, a survivor must have adopted the job and
	// resumed at least one shard from the dead replica's checkpoints.
	if victim == 0 {
		var adopted, resumed int64
		for i, r := range reps {
			if i == victim {
				continue
			}
			adopted += counterValue(r.base, "jobs.adopted")
			resumed += counterValue(r.base, "jobs.resumed_shards")
		}
		if adopted < 1 {
			t.Errorf("jobs.adopted = %d across survivors, want >= 1", adopted)
		}
		if resumed < 1 {
			t.Errorf("jobs.resumed_shards = %d across survivors, want >= 1", resumed)
		}
	}
}
