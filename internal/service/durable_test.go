package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ena/internal/dse"
	"ena/internal/obs"
	"ena/internal/store"
)

// durableConfig is the shared shape of the durable test servers: a store +
// journal on dir, a tiny checkpoint chunk, and an eval delay that stretches
// sweeps so hard stops land mid-job.
func durableConfig(t *testing.T, dir, owner string, delay time.Duration) (Config, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := store.Open(dir, 64<<20, reg)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := store.OpenJournal(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Workers:         2,
		Reg:             reg,
		Store:           st,
		Journal:         jr,
		OwnerID:         owner,
		LeaseTTL:        500 * time.Millisecond,
		AdoptEvery:      time.Hour, // adoption driven explicitly in tests
		CheckpointItems: 2,
		EvalDelay:       delay,
	}, reg
}

// smallExplore is a 16-point sweep request (2 CUs x 4 freqs x 2 BWs, one
// kernel): big enough for several checkpoint shards, small enough to finish
// in well under a second without the eval delay.
func smallExplore() ExploreRequest {
	return ExploreRequest{
		CUs:      []int{64, 128},
		FreqsMHz: []float64{700, 800, 900, 1000},
		BWsTBps:  []float64{1, 2},
		Kernels:  []string{"CoMD"},
	}
}

// wantExplore computes the single-process golden result for a request.
func wantExplore(t *testing.T, req ExploreRequest) ExploreResult {
	t.Helper()
	ej, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	return ej.summarize(dse.Explore(ej.space, ej.kernels, ej.budgetW, ej.tech))
}

func submitExploreReq(t *testing.T, ts *httptest.Server, req ExploreRequest) string {
	t.Helper()
	resp, body := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/explore", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explore submit: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Job.ID
}

func waitCounter(t *testing.T, reg *obs.Registry, name string, min int64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if reg.Counter(name).Value() >= min {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never reached %d (at %d)", name, min, reg.Counter(name).Value())
}

func TestDurableSubmitJournalsLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := durableConfig(t, dir, "alpha", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := smallExplore()
	id := submitExploreReq(t, ts, req)
	v, err := s.sched.Wait(context.Background(), id)
	if err != nil || v.State != JobDone {
		t.Fatalf("job: state=%s err=%v", v.State, err)
	}
	e, ok := cfg.Journal.Get(id)
	if !ok {
		t.Fatal("no journal entry for completed job")
	}
	if e.State != store.StateDone || e.Owner != "alpha" || e.Kind != "explore" {
		t.Fatalf("journal entry = %+v", e)
	}
	// The journalled spec replays to the same canonical key.
	var rr ExploreRequest
	if err := json.Unmarshal(e.Spec, &rr); err != nil {
		t.Fatal(err)
	}
	ej, err := rr.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if ej.key != e.Key {
		t.Fatalf("replayed key %s != journalled %s", ej.key, e.Key)
	}

	// A user cancel journals terminal cancelled — not recoverable.
	id2 := submitExploreReq(t, ts, ExploreRequest{CUs: []int{64}, FreqsMHz: []float64{750}, BWsTBps: []float64{1}, Kernels: []string{"HPGMG"}})
	s.sched.Cancel(id2)
	s.sched.Wait(context.Background(), id2)
	deadline := time.Now().Add(2 * time.Second)
	for {
		e2, ok := cfg.Journal.Get(id2)
		if ok && store.TerminalState(e2.State) {
			if e2.Recoverable(time.Now()) {
				t.Fatalf("user-cancelled job recoverable: %+v", e2)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled job never journalled terminal: %+v", e2)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDurableHardStopRecovery is the tentpole scenario in-process: a server
// is hard-stopped mid-sweep (base context killed, as a drain deadline or
// shutdown does), and a fresh server over the same store directory recovers
// the job, resumes from the checkpointed shards, and produces the
// bit-identical single-process result.
func TestDurableHardStopRecovery(t *testing.T) {
	dir := t.TempDir()
	req := smallExplore()
	want := wantExplore(t, req)

	cfgA, regA := durableConfig(t, dir, "alpha", 60*time.Millisecond)
	ctxA, cancelA := context.WithCancel(context.Background())
	sA := New(ctxA, cfgA)
	tsA := httptest.NewServer(sA.Handler())
	id := submitExploreReq(t, tsA, req)

	// Wait until real progress is checkpointed, then kill the base context —
	// in-flight work is cancelled on the spot.
	waitCounter(t, regA, "jobs.checkpoints", 1, 10*time.Second)
	cancelA()
	tsA.Close()
	v, _ := sA.sched.Wait(context.Background(), id)
	if v.State == JobDone {
		t.Skip("job finished before the hard stop; nothing to recover")
	}
	waitCounter(t, regA, "jobs.interrupted", 1, 5*time.Second)
	if e, ok := cfgA.Journal.Get(id); !ok || !e.Recoverable(time.Now().Add(time.Hour)) {
		t.Fatalf("interrupted job not recoverable in journal: %+v", e)
	}

	// A fresh replica over the same directory recovers it at startup.
	cfgB, regB := durableConfig(t, dir, "bravo", 0)
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	sB := New(ctxB, cfgB)
	if n := regB.Counter("jobs.recovered").Value(); n != 1 {
		t.Fatalf("jobs.recovered = %d, want 1", n)
	}
	vB, err := sB.sched.Wait(context.Background(), id)
	if err != nil || vB.State != JobDone {
		t.Fatalf("recovered job: state=%s err=%v", vB.State, err)
	}
	got, ok := vB.Result.(ExploreResult)
	if !ok {
		t.Fatalf("result type %T", vB.Result)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered result differs from single-process golden:\ngot  %+v\nwant %+v", got, want)
	}
	// At least one shard must have come from the dead server's checkpoints.
	if n := regB.Counter("jobs.resumed_shards").Value(); n < 1 {
		t.Fatalf("jobs.resumed_shards = %d, want >= 1", n)
	}
	// The journal converged on the adopter.
	if e, ok := cfgB.Journal.Get(id); !ok || e.State != store.StateDone || e.Owner != "bravo" {
		t.Fatalf("final journal entry = %+v", e)
	}

	drainCtx, dc := context.WithTimeout(context.Background(), 5*time.Second)
	defer dc()
	sA.Drain(drainCtx)
	sB.Drain(drainCtx)
}

// TestDurableAdoption: a live replica adopts a journalled job whose lease
// has expired — the shared-directory takeover path — without any restart.
func TestDurableAdoption(t *testing.T) {
	dir := t.TempDir()
	req := smallExplore()
	want := wantExplore(t, req)
	ej, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(req)

	cfg, reg := durableConfig(t, dir, "survivor", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, cfg)

	// A ghost replica journalled this job and died: the lease expired an
	// hour ago and no state record ever moved it past queued.
	if err := cfg.Journal.Append(store.Record{
		ID: "ghostjob1", Type: "submit", Kind: "explore", Key: ej.key, Spec: spec,
		State: store.StateQueued, Owner: "ghost",
		LeaseMs: time.Now().Add(-time.Hour).UnixMilli(),
	}); err != nil {
		t.Fatal(err)
	}

	s.durable.adoptOnce(time.Now())
	if n := reg.Counter("jobs.adopted").Value(); n != 1 {
		t.Fatalf("jobs.adopted = %d, want 1", n)
	}
	v, err := s.sched.Wait(context.Background(), "ghostjob1")
	if err != nil || v.State != JobDone {
		t.Fatalf("adopted job: state=%s err=%v", v.State, err)
	}
	if got := v.Result.(ExploreResult); !reflect.DeepEqual(got, want) {
		t.Fatal("adopted result differs from single-process golden")
	}
	// Re-scanning must not adopt it again (terminal + owned).
	s.durable.adoptOnce(time.Now())
	if n := reg.Counter("jobs.adopted").Value(); n != 1 {
		t.Fatalf("jobs.adopted after rescan = %d, want 1", n)
	}

	// A job with a live lease held by a peer is left alone.
	if err := cfg.Journal.Append(store.Record{
		ID: "busyjob1", Type: "submit", Kind: "explore", Key: ej.key, Spec: spec,
		State: store.StateRunning, Owner: "peer",
		LeaseMs: time.Now().Add(time.Hour).UnixMilli(),
	}); err != nil {
		t.Fatal(err)
	}
	s.durable.adoptOnce(time.Now())
	if n := reg.Counter("jobs.adopted").Value(); n != 1 {
		t.Fatal("adopted a job under a live lease")
	}

	// A poison spec is journalled failed, not retried forever.
	if err := cfg.Journal.Append(store.Record{
		ID: "poisonjob1", Type: "submit", Kind: "explore", Key: "k",
		Spec:  json.RawMessage(`{"cus":[-5]}`),
		State: store.StateQueued, Owner: "ghost",
		LeaseMs: time.Now().Add(-time.Hour).UnixMilli(),
	}); err != nil {
		t.Fatal(err)
	}
	s.durable.adoptOnce(time.Now())
	if e, ok := cfg.Journal.Get("poisonjob1"); !ok || e.State != store.StateFailed {
		t.Fatalf("poison entry = %+v, want failed", e)
	}
}

// saturate fills a one-worker, one-slot scheduler: a gated blocker holds the
// worker and a filler holds the queue slot. Neither is journalled. Closing
// the returned gate lets both finish.
func saturate(t *testing.T, s *Server) chan struct{} {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{})
	if _, err := s.sched.Submit("blocker", 0, func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started
	if _, err := s.sched.Submit("filler", 0, func(ctx context.Context) (any, error) {
		return nil, nil
	}); err != nil {
		t.Fatalf("Submit filler: %v", err)
	}
	return gate
}

// The scheduler decides before the journal write: an explore shed by a full
// queue answers 503 and leaves no journal record behind.
func TestDurableShedSubmissionNotJournalled(t *testing.T) {
	dir := t.TempDir()
	cfg, reg := durableConfig(t, dir, "alpha", 0)
	cfg.Workers, cfg.QueueCap = 1, 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	gate := saturate(t, s)
	defer close(gate)

	appends := reg.Counter("jobs.journal_appends").Value()
	resp, b := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/explore", smallExplore())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explore with saturated queue = %d, want 503: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed explore is missing Retry-After")
	}
	if n := reg.Counter("jobs.journal_appends").Value(); n != appends {
		t.Errorf("jobs.journal_appends moved %d -> %d for a shed submission", appends, n)
	}
	files, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("journal holds %d job file(s) after a shed submission, want 0", len(files))
	}
}

// Adoption with a full queue claims nothing: the entry keeps its owner and
// lapsed lease, so a peer can adopt it at once, and a later scan with room
// adopts it here.
func TestDurableAdoptionFullQueueKeepsLease(t *testing.T) {
	dir := t.TempDir()
	req := smallExplore()
	ej, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(req)
	cfg, reg := durableConfig(t, dir, "survivor", 0)
	cfg.Workers, cfg.QueueCap = 1, 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, cfg)
	gate := saturate(t, s)

	if err := cfg.Journal.Append(store.Record{
		ID: "ghostjob2", Type: "submit", Kind: "explore", Key: ej.key, Spec: spec,
		State: store.StateQueued, Owner: "ghost",
		LeaseMs: time.Now().Add(-time.Hour).UnixMilli(),
	}); err != nil {
		t.Fatal(err)
	}
	before, _ := cfg.Journal.Get("ghostjob2")
	s.durable.adoptOnce(time.Now())
	after, ok := cfg.Journal.Get("ghostjob2")
	if !ok || after.Owner != "ghost" || !after.LeaseUntil.Equal(before.LeaseUntil) || after.State != store.StateQueued {
		t.Fatalf("shed adoption changed the entry: owner %q -> %q, lease %v -> %v, state %s -> %s",
			before.Owner, after.Owner, before.LeaseUntil, after.LeaseUntil, before.State, after.State)
	}
	if !after.Recoverable(time.Now()) {
		t.Fatal("entry is not adoptable right after a shed adoption")
	}
	if n := reg.Counter("jobs.adopted").Value(); n != 0 {
		t.Fatalf("jobs.adopted = %d after a shed adoption, want 0", n)
	}

	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("filler never left the queue")
		}
		time.Sleep(time.Millisecond)
	}
	s.durable.adoptOnce(time.Now())
	if n := reg.Counter("jobs.adopted").Value(); n != 1 {
		t.Fatalf("jobs.adopted = %d once the queue has room, want 1", n)
	}
	if v, err := s.sched.Wait(context.Background(), "ghostjob2"); err != nil || v.State != JobDone {
		t.Fatalf("adopted job: state=%s err=%v", v.State, err)
	}
	drainCtx, dc := context.WithTimeout(context.Background(), 5*time.Second)
	defer dc()
	s.Drain(drainCtx)
}

func TestDurableJournalJobView(t *testing.T) {
	// GET /v1/jobs/{id} answers from the shared journal for jobs this
	// replica has no in-memory record of.
	dir := t.TempDir()
	req := smallExplore()
	ej, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(req)

	cfg, _ := durableConfig(t, dir, "viewer", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := cfg.Journal.Append(store.Record{
		ID: "peerjob1", Type: "submit", Kind: "explore", Key: ej.key, Spec: spec,
		State: store.StateRunning, Owner: "peer",
		LeaseMs: time.Now().Add(time.Hour).UnixMilli(),
	}); err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/jobs/peerjob1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("journal view: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Job.Owner != "peer" || out.Job.State != JobState(store.StateRunning) {
		t.Fatalf("journal view = %+v", out.Job)
	}

	// The internal jobs summary lists it too.
	resp, body = doJSON(t, ts.Client(), "GET", ts.URL+"/v1/internal/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("internal jobs: %d", resp.StatusCode)
	}
	var sum struct {
		Owner string `json:"owner"`
		Jobs  []struct {
			ID    string `json:"id"`
			Owner string `json:"owner"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Owner != "viewer" || len(sum.Jobs) != 1 || sum.Jobs[0].ID != "peerjob1" {
		t.Fatalf("internal jobs summary = %+v", sum)
	}
}

func TestDrainDeadlineJournalsInterrupted(t *testing.T) {
	dir := t.TempDir()
	cfg, reg := durableConfig(t, dir, "drainer", 80*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submitExploreReq(t, ts, smallExplore())
	waitCounter(t, reg, "jobs.checkpoints", 1, 10*time.Second)

	drainCtx, dc := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dc()
	if err := s.Drain(drainCtx); err == nil {
		t.Skip("job drained before the deadline; nothing interrupted")
	}
	if n := reg.Counter("jobs.interrupted").Value(); n < 1 {
		t.Fatalf("jobs.interrupted = %d, want >= 1", n)
	}
	e, ok := cfg.Journal.Get(id)
	if !ok || e.State != store.StateInterrupted {
		t.Fatalf("journal entry after drain = %+v, want interrupted", e)
	}
	if !e.Recoverable(time.Now().Add(time.Hour)) {
		t.Fatal("interrupted job not recoverable")
	}
}

func TestDurableScaleRecovery(t *testing.T) {
	// The scale path rides the same journal/replay machinery.
	dir := t.TempDir()
	req := ScaleRequest{Kernel: "CoMD", Nodes: []int{1, 8, 50, 256}}
	spec, _ := json.Marshal(req)
	sj, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}

	cfg, reg := durableConfig(t, dir, "scaler", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, cfg)

	if err := cfg.Journal.Append(store.Record{
		ID: "ghostscale1", Type: "submit", Kind: "scale", Key: sj.key, Spec: spec,
		State: store.StateInterrupted, Owner: "ghost",
	}); err != nil {
		t.Fatal(err)
	}
	s.durable.adoptOnce(time.Now())
	if n := reg.Counter("jobs.adopted").Value(); n != 1 {
		t.Fatalf("jobs.adopted = %d, want 1", n)
	}
	v, err := s.sched.Wait(context.Background(), "ghostscale1")
	if err != nil || v.State != JobDone {
		t.Fatalf("adopted scale job: state=%s err=%v", v.State, err)
	}
	res, ok := v.Result.(ScaleResult)
	if !ok || len(res.Points) != 4 {
		t.Fatalf("scale result = %+v", v.Result)
	}
}

func TestRestoredResultServedFromStore(t *testing.T) {
	// A completed job's result survives a restart: the fresh server restores
	// it from the journal + store without recomputing (execution counters
	// stay zero).
	dir := t.TempDir()
	req := smallExplore()

	cfgA, _ := durableConfig(t, dir, "alpha", 0)
	ctxA, cancelA := context.WithCancel(context.Background())
	sA := New(ctxA, cfgA)
	tsA := httptest.NewServer(sA.Handler())
	id := submitExploreReq(t, tsA, req)
	vA, err := sA.sched.Wait(context.Background(), id)
	if err != nil || vA.State != JobDone {
		t.Fatalf("job: state=%s err=%v", vA.State, err)
	}
	want := vA.Result.(ExploreResult)
	tsA.Close()
	cancelA()
	drainCtx, dc := context.WithTimeout(context.Background(), 5*time.Second)
	defer dc()
	sA.Drain(drainCtx)

	cfgB, regB := durableConfig(t, dir, "bravo", 0)
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	sB := New(ctxB, cfgB)
	tsB := httptest.NewServer(sB.Handler())
	defer tsB.Close()
	resp, body := doJSON(t, tsB.Client(), "GET", fmt.Sprintf("%s/v1/jobs/%s", tsB.URL, id), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored job view: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Job.State != JobDone {
		t.Fatalf("restored state = %s", out.Job.State)
	}
	// Decode the wire result back into the typed shape: it must round-trip
	// to exactly what the original process computed.
	gotJSON, _ := json.Marshal(out.Job.Result)
	var got ExploreResult
	if err := json.Unmarshal(gotJSON, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored result differs:\ngot  %+v\nwant %+v", got, want)
	}
	if n := regB.Counter("service.jobs.submitted").Value(); n != 0 {
		t.Fatalf("restore re-submitted %d job(s)", n)
	}
}
