package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"ena/internal/obs"
	"ena/internal/store"
)

// Durable jobs: the service-side half of the crash-safe job pipeline. Every
// async submission (explore/scale) the scheduler admits is journalled
// write-ahead to the shared store directory before it is enqueued (a shed
// one is never journalled), every lifecycle transition is
// appended as it happens, and the job carries a lease (owner id + expiry)
// renewed by a heartbeat while it is live here. A replica that restarts — or
// any replica sharing the store directory — folds the journal back into
// jobs: terminal entries become queryable again with their results served
// from the store, and recoverable entries (queued/running with an expired
// lease, or interrupted by a drain deadline) are re-enqueued under their
// original ids. An adoption ticker keeps doing the same while the process
// runs, so a SIGKILLed coordinator's sweep completes on a surviving replica
// once its lease lapses.
//
// Correctness under races leans on two properties rather than consensus:
// results are content-addressed (a double execution is wasted work, never a
// wrong answer — and checkpointed sweeps make the waste small), and
// journal folds keep terminal states sticky (an adopter can never resurrect
// a finished job). Lease claims are last-writer-wins appends: two replicas
// adopting the same job both run it, converge on the same cached result,
// and the journal settles on whichever finished last.

// Durable-manager defaults when the corresponding Config field is zero.
const (
	DefaultLeaseTTL = 10 * time.Second
)

// durableManager journals job lifecycles and recovers/adopts journalled
// jobs. It implements jobRecorder for the scheduler's transition hook.
type durableManager struct {
	jr    *store.Journal
	owner string
	ttl   time.Duration
	srv   *Server // set right after Server construction

	mu   sync.Mutex
	live map[string]bool // jobs this replica currently owns

	recoveredCtr   *obs.Counter
	adoptedCtr     *obs.Counter
	interruptedCtr *obs.Counter
	renewalsCtr    *obs.Counter
	journalErrs    *obs.Counter
}

func newDurable(jr *store.Journal, owner string, ttl time.Duration, reg *obs.Registry) *durableManager {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &durableManager{
		jr:             jr,
		owner:          owner,
		ttl:            ttl,
		live:           make(map[string]bool),
		recoveredCtr:   reg.Counter("jobs.recovered"),
		adoptedCtr:     reg.Counter("jobs.adopted"),
		interruptedCtr: reg.Counter("jobs.interrupted"),
		renewalsCtr:    reg.Counter("jobs.lease_renewals"),
		journalErrs:    reg.Counter("jobs.journal_errors"),
	}
}

// leaseMs is the expiry a lease written now carries.
func (m *durableManager) leaseMs(now time.Time) int64 {
	return now.Add(m.ttl).UnixMilli()
}

func (m *durableManager) append(rec store.Record) {
	if err := m.jr.Append(rec); err != nil {
		// A journal write failing must not fail the job — durability
		// degrades, the work continues. The counter is the operator signal.
		m.journalErrs.Inc()
	}
}

// journalSubmit writes the job's submit record — identity, canonical result
// key, and the original request spec — before the scheduler sees it.
func (m *durableManager) journalSubmit(id, kind, key string, spec []byte) {
	m.mu.Lock()
	m.live[id] = true
	m.mu.Unlock()
	m.append(store.Record{
		ID:      id,
		Type:    "submit",
		Kind:    kind,
		Key:     key,
		Spec:    spec,
		State:   store.StateQueued,
		Owner:   m.owner,
		LeaseMs: m.leaseMs(time.Now()),
	})
}

// transition implements jobRecorder: every scheduler state change of a job
// this replica owns lands in the journal. Interruptions (drain deadline,
// shutdown) are journalled as the recoverable "interrupted" state even
// though the in-memory job reads cancelled.
func (m *durableManager) transition(id string, state JobState, errMsg string, interrupted bool) {
	m.mu.Lock()
	owned := m.live[id]
	if owned && state.Terminal() {
		delete(m.live, id)
	}
	m.mu.Unlock()
	if !owned {
		return
	}
	st := string(state)
	if interrupted {
		st = store.StateInterrupted
	}
	rec := store.Record{ID: id, Type: "state", State: st, Err: errMsg, Owner: m.owner}
	if !store.TerminalState(st) {
		rec.LeaseMs = m.leaseMs(time.Now())
	}
	m.append(rec)
	// Count the interruption only once its record is durable, so a reader of
	// jobs.interrupted always finds the journal entry behind it.
	if interrupted {
		m.interruptedCtr.Inc()
	}
}

// pruned implements jobRecorder: a job evicted from the scheduler table no
// longer needs its journal file.
func (m *durableManager) pruned(id string) {
	if err := m.jr.Remove(id); err != nil {
		m.journalErrs.Inc()
	}
}

// liveIDs snapshots the jobs this replica owns.
func (m *durableManager) liveIDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.live))
	for id := range m.live {
		ids = append(ids, id)
	}
	return ids
}

// heartbeatLoop renews the lease on every owned job at ttl/3, so a healthy
// replica's jobs are never adoptable and a dead replica's become so within
// one TTL.
func (m *durableManager) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(m.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			now := time.Now()
			for _, id := range m.liveIDs() {
				m.append(store.Record{ID: id, Type: "lease", Owner: m.owner, LeaseMs: m.leaseMs(now)})
				m.renewalsCtr.Inc()
			}
		}
	}
}

// adoptLoop periodically scans the shared journal for jobs whose lease has
// lapsed — a SIGKILLed peer's — and re-enqueues them here.
func (m *durableManager) adoptLoop(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = m.ttl
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.adoptOnce(time.Now())
		}
	}
}

// adoptOnce adopts every recoverable journal entry not already owned here.
func (m *durableManager) adoptOnce(now time.Time) {
	for _, e := range m.jr.Load() {
		m.mu.Lock()
		owned := m.live[e.ID]
		m.mu.Unlock()
		if owned || !e.Recoverable(now) {
			continue
		}
		m.resubmit(e, m.adoptedCtr)
	}
}

// recover is the startup pass over the journal: terminal entries are
// restored into the scheduler table (results decoded from the store, never
// recomputed), recoverable ones re-enqueued under their original ids.
// Entries held under a live peer's lease are left alone.
func (m *durableManager) recover(now time.Time) {
	for _, e := range m.jr.Load() {
		if store.TerminalState(e.State) {
			m.srv.sched.Restore(m.journalView(e), m.srv.storedResult(e.Kind, e.Key))
			continue
		}
		if e.Recoverable(now) {
			m.resubmit(e, m.recoveredCtr)
		}
	}
}

// resubmit re-enqueues a journal entry, claiming it (lease as self, state
// queued) only once the scheduler has room for it. A shed resubmission
// writes nothing, so the entry keeps its lapsed lease and another replica
// (or a later scan) can adopt it at once. A spec that no longer resolves is
// journalled failed — the poison guard that keeps a corrupt entry from being
// re-adopted forever.
func (m *durableManager) resubmit(e store.Entry, ctr *obs.Counter) {
	run, timeout, err := m.srv.runnerForJournal(e)
	if err != nil {
		m.append(store.Record{
			ID: e.ID, Type: "state", State: store.StateFailed,
			Err: "unrecoverable spec: " + err.Error(), Owner: m.owner,
		})
		return
	}
	claim := func() {
		m.mu.Lock()
		m.live[e.ID] = true
		m.mu.Unlock()
		m.append(store.Record{
			ID: e.ID, Type: "state", State: store.StateQueued,
			Owner: m.owner, LeaseMs: m.leaseMs(time.Now()),
		})
	}
	if _, err := m.srv.sched.SubmitWithID(e.ID, e.Kind, timeout, run, claim); err != nil {
		return
	}
	ctr.Inc()
}

// journalView shapes a folded journal entry as a job view — the fallback
// GET /v1/jobs/{id} serves for jobs this process has no in-memory record of
// (journalled by a peer, or pruned here).
func (m *durableManager) journalView(e store.Entry) JobView {
	v := JobView{
		ID:      e.ID,
		Kind:    e.Kind,
		State:   JobState(e.State),
		Created: e.Created,
		Error:   e.Err,
		Owner:   e.Owner,
	}
	if !e.Finished.IsZero() {
		t := e.Finished
		v.Finished = &t
	}
	return v
}

// view folds one journal entry into a job view; for done jobs the result is
// decoded from the store so a client polling any replica sees the payload.
func (m *durableManager) view(id string) (JobView, bool) {
	e, ok := m.jr.Get(id)
	if !ok {
		return JobView{}, false
	}
	v := m.journalView(e)
	if e.State == store.StateDone {
		v.Result = m.srv.storedResult(e.Kind, e.Key)
	}
	return v, true
}

// storedResult decodes a journalled job's result payload from the persistent
// store by its canonical key (nil when absent or undecodable).
func (s *Server) storedResult(kind, key string) any {
	if s.cfg.Store == nil || key == "" {
		return nil
	}
	payload, ok := s.cfg.Store.Get(key)
	if !ok {
		return nil
	}
	var decode func([]byte) (any, error)
	switch kind {
	case "explore":
		decode = decodeAs[ExploreResult]
	case "scale":
		decode = decodeAs[ScaleResult]
	default:
		return nil
	}
	v, err := decode(payload)
	if err != nil {
		return nil
	}
	return v
}

// runnerForJournal rebuilds a journalled job's execution closure from its
// original request spec. The spec re-resolves through the same path the
// handler used, so the canonical key — and therefore the store slot and
// checkpoint prefix — is identical.
func (s *Server) runnerForJournal(e store.Entry) (func(context.Context) (any, error), time.Duration, error) {
	switch e.Kind {
	case "explore":
		var req ExploreRequest
		if err := json.Unmarshal(e.Spec, &req); err != nil {
			return nil, 0, fmt.Errorf("explore spec: %w", err)
		}
		ej, err := req.resolve()
		if err != nil {
			return nil, 0, fmt.Errorf("explore spec: %w", err)
		}
		return jobRunner(s.cache, ej.key, ej, s.explore), s.jobTimeout(ej.timeout), nil
	case "scale":
		var req ScaleRequest
		if err := json.Unmarshal(e.Spec, &req); err != nil {
			return nil, 0, fmt.Errorf("scale spec: %w", err)
		}
		sj, err := req.resolve()
		if err != nil {
			return nil, 0, fmt.Errorf("scale spec: %w", err)
		}
		return jobRunner(s.cache, sj.key, sj, s.scale), s.jobTimeout(sj.timeout), nil
	}
	return nil, 0, fmt.Errorf("unknown job kind %q", e.Kind)
}

// jobTimeoutOf converts a request's timeout_sec to a job deadline, zero for
// none. It rejects a negative value and one whose duration does not fit: Go
// leaves an out-of-range float conversion to the platform (amd64 yields
// MinInt64), and the scheduler reads a non-positive deadline as none.
func jobTimeoutOf(sec float64) (time.Duration, error) {
	if sec < 0 {
		return 0, fmt.Errorf("negative timeout_sec %v", sec)
	}
	d := sec * float64(time.Second)
	if !(d < math.MaxInt64) {
		return 0, fmt.Errorf("timeout_sec %v exceeds the longest deadline", sec)
	}
	return time.Duration(d), nil
}

// jobTimeout applies the server default when the request set none.
func (s *Server) jobTimeout(d time.Duration) time.Duration {
	if d == 0 {
		return s.cfg.JobTimeout
	}
	return d
}

// submitJob enqueues an async job, journalling it write-ahead when the
// server runs durable: the scheduler admits the job first, so a shed
// submission leaves no journal record. spec is the original wire request
// (the journal's replay payload); key the canonical result-store key.
func (s *Server) submitJob(kind, key string, spec any, timeout time.Duration, run func(context.Context) (any, error)) (JobView, error) {
	if s.durable == nil {
		return s.sched.Submit(kind, timeout, run)
	}
	specBytes, err := json.Marshal(spec)
	if err != nil {
		return JobView{}, fmt.Errorf("service: spec marshal: %w", err)
	}
	id := newJobID()
	view, err := s.sched.SubmitWithID(id, kind, timeout, run, func() {
		s.durable.journalSubmit(id, kind, key, specBytes)
	})
	if err != nil {
		return JobView{}, err
	}
	view.Owner = s.durable.owner
	return view, nil
}

// internalJobEntry is one row of GET /v1/internal/jobs — the journal summary
// peers (and operators) poll to see the shared job table.
type internalJobEntry struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	Key        string     `json:"key,omitempty"`
	State      string     `json:"state"`
	Owner      string     `json:"owner,omitempty"`
	LeaseUntil *time.Time `json:"lease_until,omitempty"`
	Created    *time.Time `json:"created,omitempty"`
}

func (s *Server) handleInternalJobs(w http.ResponseWriter, r *http.Request) {
	out := []internalJobEntry{}
	if s.durable != nil {
		for _, e := range s.durable.jr.Load() {
			row := internalJobEntry{
				ID: e.ID, Kind: e.Kind, Key: e.Key, State: e.State, Owner: e.Owner,
			}
			if !e.LeaseUntil.IsZero() {
				t := e.LeaseUntil
				row.LeaseUntil = &t
			}
			if !e.Created.IsZero() {
				t := e.Created
				row.Created = &t
			}
			out = append(out, row)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"owner": s.ownerID(), "jobs": out})
}

// ownerID is this replica's lease owner id ("" when not durable).
func (s *Server) ownerID() string {
	if s.durable == nil {
		return ""
	}
	return s.durable.owner
}
