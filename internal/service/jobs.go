package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ena/internal/faults"
	"ena/internal/obs"
)

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: queued -> running -> one of done/failed/cancelled. A queued
// job cancelled before a worker picks it up goes straight to cancelled.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobView is the externally visible snapshot of a job — the JSON body of
// GET /v1/jobs/{id}.
type JobView struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Owner identifies the replica holding the job's lease (empty when the
	// server runs without a journal, or for journal-only views of jobs that
	// lost their owner).
	Owner string `json:"owner,omitempty"`
	// Quarantined marks a job whose execution panicked: the request is
	// isolated (never retried, never re-enqueued) and the worker survived.
	Quarantined bool `json:"quarantined,omitempty"`
	// Retries counts transient-failure re-executions this job consumed.
	Retries int `json:"retries,omitempty"`
	Result  any `json:"result,omitempty"`
}

type job struct {
	id      string
	kind    string
	timeout time.Duration
	run     func(context.Context) (any, error)

	mu          sync.Mutex
	state       JobState
	created     time.Time
	started     time.Time
	finished    time.Time
	err         error
	result      any
	quarantined bool
	retries     int
	// userCancelled distinguishes an explicit DELETE /v1/jobs/{id} from a
	// system cancellation (drain deadline, server shutdown): only the latter
	// is journalled as interrupted — i.e. recoverable — by a durable manager.
	userCancelled bool
	cancel        context.CancelFunc // set while running
	done          chan struct{}      // closed on any terminal transition
}

func (j *job) viewLocked() JobView {
	v := JobView{
		ID:      j.id,
		Kind:    j.kind,
		State:   j.state,
		Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	v.Quarantined = j.quarantined
	v.Retries = j.retries
	if j.state == JobDone {
		v.Result = j.result
	}
	return v
}

// Submission and drain errors.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrDraining  = errors.New("service: scheduler is draining")
	// ErrPanicked wraps a recovered job panic: the request is quarantined
	// (reported failed, never retried) and the worker keeps serving.
	ErrPanicked = errors.New("service: job panicked")
)

// jobRecorder observes job lifecycle transitions — the hook a durable jobs
// manager uses to journal state changes as they happen. Calls are made
// outside the job's lock (the recorder may do I/O); interrupted is true when
// a cancellation came from the system (drain deadline, shutdown) rather than
// the user, meaning the job should be journalled as recoverable.
type jobRecorder interface {
	transition(id string, state JobState, errMsg string, interrupted bool)
	pruned(id string)
}

// Scheduler executes submitted jobs on a bounded worker pool. Every job runs
// under a context derived from the scheduler's base context (so a server
// shutdown reaches running jobs) plus an optional per-job deadline, and can
// be cancelled individually at any point in its lifecycle.
//
// Finished jobs stay queryable until pruned: the scheduler retains at most
// retain jobs, evicting the oldest terminal ones first, so the job table
// cannot grow without bound under sustained traffic.
type Scheduler struct {
	baseCtx context.Context
	queue   chan *job
	wg      sync.WaitGroup
	running atomic.Int64
	workers int
	// ewmaNs smooths observed job durations (α = 0.2) for the adaptive
	// Retry-After hint on queue-full sheds.
	ewmaNs atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for pruning
	retain int
	closed bool

	// recorder (optional) journals transitions; interrupting is set by Drain
	// before force-cancelling so execute classifies those cancellations as
	// interruptions, not user cancels.
	recorder     jobRecorder
	interrupting atomic.Bool

	// Resilience knobs (see SchedOption).
	chaos     *faults.Chaos
	retryMax  int
	retryBase time.Duration
	jitterMu  sync.Mutex
	jitter    *mrand.Rand

	submitted    *obs.Counter
	completed    *obs.Counter
	failed       *obs.Counter
	cancelledCtr *obs.Counter
	rejected     *obs.Counter
	panicked     *obs.Counter
	retriesCtr   *obs.Counter
	runningGauge *obs.Gauge
	queueGauge   *obs.Gauge
	durHist      *obs.Histogram
}

// SchedOption tunes a Scheduler beyond the basic pool sizing.
type SchedOption func(*Scheduler)

// WithChaos installs a runtime fault injector: jobs may be stalled, fail
// transiently, or panic at the injector's seeded probabilities — exercising
// the quarantine/retry machinery this scheduler recovers with.
func WithChaos(c *faults.Chaos) SchedOption {
	return func(s *Scheduler) { s.chaos = c }
}

// WithRetry sets the transient-failure retry policy: up to max re-executions
// with exponential backoff starting at base (plus up to 50% jitter). Only
// errors marked retryable via faults.Transient are retried; panics never are.
func WithRetry(max int, base time.Duration) SchedOption {
	return func(s *Scheduler) {
		s.retryMax = max
		if base > 0 {
			s.retryBase = base
		}
	}
}

// WithRecorder installs a job lifecycle observer (see jobRecorder).
func WithRecorder(r jobRecorder) SchedOption {
	return func(s *Scheduler) { s.recorder = r }
}

// record is the nil-safe recorder call.
func (s *Scheduler) record(id string, state JobState, errMsg string, interrupted bool) {
	if s.recorder != nil {
		s.recorder.transition(id, state, errMsg, interrupted)
	}
}

// Scheduler defaults when the corresponding Config field is zero.
const (
	DefaultQueueCap  = 64
	DefaultJobRetain = 256
)

// NewScheduler starts workers goroutines consuming a queue of at most
// queueCap pending jobs. ctx is the base context every job runs under;
// cancelling it aborts all running jobs. Metrics land in reg under
// service.jobs.* (nil disables them).
func NewScheduler(ctx context.Context, workers, queueCap, retain int, reg *obs.Registry, opts ...SchedOption) *Scheduler {
	if workers <= 0 {
		workers = 1
	}
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	if retain <= 0 {
		retain = DefaultJobRetain
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Scheduler{
		baseCtx:      ctx,
		workers:      workers,
		queue:        make(chan *job, queueCap),
		jobs:         make(map[string]*job),
		retain:       retain,
		retryBase:    10 * time.Millisecond,
		jitter:       mrand.New(mrand.NewSource(1)),
		submitted:    reg.Counter("service.jobs.submitted"),
		completed:    reg.Counter("service.jobs.completed"),
		failed:       reg.Counter("service.jobs.failed"),
		cancelledCtr: reg.Counter("service.jobs.cancelled"),
		rejected:     reg.Counter("service.jobs.rejected"),
		panicked:     reg.Counter("service.jobs.panicked"),
		retriesCtr:   reg.Counter("service.jobs.retries"),
		runningGauge: reg.Gauge("service.jobs.running"),
		queueGauge:   reg.Gauge("service.jobs.queued"),
		durHist:      reg.Histogram("service.jobs.duration_ns", durationBounds),
	}
	for _, o := range opts {
		o(s)
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// QueueDepth reports how many jobs are waiting for a worker right now.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// QueueCap reports the pending-queue capacity.
func (s *Scheduler) QueueCap() int { return cap(s.queue) }

// RetryAfterSecs estimates how long a rejected client should wait before
// resubmitting: the queued jobs ahead of it at the pool's smoothed service
// time, via the shared retryAfterHint estimator.
func (s *Scheduler) RetryAfterSecs() int {
	return retryAfterHint(len(s.queue), s.workers, s.ewmaNs.Load())
}

// newJobID returns a 16-hex-char random job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; a zero ID
		// would collide, so panic loudly rather than corrupt the table.
		panic("service: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Submit enqueues a job and returns its view. timeout == 0 means no per-job
// deadline (the base context still applies). Returns ErrQueueFull when the
// pending queue is at capacity and ErrDraining after Drain began.
func (s *Scheduler) Submit(kind string, timeout time.Duration, run func(context.Context) (any, error)) (JobView, error) {
	return s.SubmitWithID(newJobID(), kind, timeout, run)
}

// SubmitWithID is Submit with a caller-chosen job id — the handle a durable
// manager uses to re-enqueue journalled jobs under their original identity.
// Idempotent: if the id is already in the table the existing job's view is
// returned and nothing is enqueued, so recovery and adoption racing a live
// submission cannot double-run a job.
func (s *Scheduler) SubmitWithID(id, kind string, timeout time.Duration, run func(context.Context) (any, error)) (JobView, error) {
	j := &job{
		id:      id,
		kind:    kind,
		timeout: timeout,
		run:     run,
		state:   JobQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	s.mu.Lock()
	if existing := s.jobs[id]; existing != nil {
		s.mu.Unlock()
		existing.mu.Lock()
		defer existing.mu.Unlock()
		return existing.viewLocked(), nil
	}
	if s.closed {
		s.mu.Unlock()
		s.rejected.Inc()
		return JobView{}, ErrDraining
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.rejected.Inc()
		return JobView{}, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	prunedIDs := s.pruneLocked()
	s.mu.Unlock()

	if s.recorder != nil {
		for _, pid := range prunedIDs {
			s.recorder.pruned(pid)
		}
	}
	s.submitted.Inc()
	s.queueGauge.Set(float64(len(s.queue)))
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked(), nil
}

// Restore installs an already-terminal job view into the table — how a
// restarted server makes journalled finished jobs queryable again without
// re-running them. The result (decoded from the store) may be nil for
// non-done states. No-op if the id is live.
func (s *Scheduler) Restore(v JobView, result any) {
	if !v.State.Terminal() {
		return
	}
	j := &job{
		id:      v.ID,
		kind:    v.Kind,
		state:   v.State,
		created: v.Created,
		result:  result,
		done:    make(chan struct{}),
	}
	if v.Started != nil {
		j.started = *v.Started
	}
	if v.Finished != nil {
		j.finished = *v.Finished
	} else {
		j.finished = v.Created
	}
	if v.Error != "" {
		j.err = errors.New(v.Error)
	}
	close(j.done)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[v.ID] != nil {
		return
	}
	s.jobs[v.ID] = j
	s.order = append(s.order, v.ID)
	s.pruneLocked()
}

// Get returns a job's current view.
func (s *Scheduler) Get(id string) (JobView, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobView{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked(), true
}

// Cancel requests cancellation: a queued job transitions to cancelled
// immediately; a running job has its context cancelled and transitions once
// its function returns. Terminal jobs are unaffected. The returned view
// reflects the state right after the request.
func (s *Scheduler) Cancel(id string) (JobView, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobView{}, false
	}
	j.mu.Lock()
	var cancelled bool
	switch j.state {
	case JobQueued:
		j.state = JobCancelled
		j.userCancelled = true
		j.err = context.Canceled
		j.finished = time.Now()
		cancelled = true
	case JobRunning:
		j.userCancelled = true
		j.cancel()
	}
	v := j.viewLocked()
	j.mu.Unlock()
	if cancelled {
		// Persist before publish: execute already skips the job marked
		// cancelled above, and the journal gets the cancellation before
		// the done channel or the cancelled counter shows it.
		s.record(j.id, JobCancelled, context.Canceled.Error(), false)
		close(j.done)
		s.cancelledCtr.Inc()
	}
	return v, true
}

// Wait blocks until the job reaches a terminal state or ctx ends, returning
// the job's view either way.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobView{}, errors.New("service: unknown job " + id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked(), ctx.Err()
}

// Drain stops accepting submissions, waits for queued and running jobs to
// finish, and — if ctx ends first — cancels everything still running and
// waits for the workers to wind down. Safe to call more than once.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-cancellations from here on are interruptions, not user
		// cancels: a durable recorder journals them as recoverable.
		s.interrupting.Store(true)
		s.mu.Lock()
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.state == JobRunning {
				j.cancel()
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.queueGauge.Set(float64(len(s.queue)))
		s.execute(j)
	}
}

func (s *Scheduler) execute(j *job) {
	j.mu.Lock()
	if j.state != JobQueued { // cancelled while waiting in the queue
		j.mu.Unlock()
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j.cancel = cancel
	j.state = JobRunning
	j.started = time.Now()
	run := j.run
	j.mu.Unlock()
	s.runningGauge.Set(float64(s.running.Add(1)))
	s.record(j.id, JobRunning, "", false)

	res, err, retries, quarantined := s.runResilient(ctx, run)
	cancel()
	s.runningGauge.Set(float64(s.running.Add(-1)))

	state, errMsg := JobDone, ""
	if err != nil {
		state, errMsg = JobFailed, err.Error()
		if errors.Is(err, context.Canceled) {
			state = JobCancelled
		}
	}
	j.mu.Lock()
	// A cancellation nobody asked for — drain deadline or base-context
	// shutdown — leaves the job recoverable by a restarted replica.
	interrupted := state == JobCancelled && !j.userCancelled && (s.interrupting.Load() || s.baseCtx.Err() != nil)
	j.mu.Unlock()
	// Persist before publish: the terminal state reaches the journal before
	// the job's view, its done channel or the job counters show it, so a
	// caller that saw the job finish always finds the journal entry too.
	s.record(j.id, state, errMsg, interrupted)

	j.mu.Lock()
	j.finished = time.Now()
	j.retries = retries
	j.quarantined = quarantined
	s.durHist.Observe(float64(j.finished.Sub(j.started)))
	foldEwma(&s.ewmaNs, j.finished.Sub(j.started))
	j.state = state
	switch state {
	case JobDone:
		j.result = res
		s.completed.Inc()
	case JobCancelled:
		j.err = err
		s.cancelledCtr.Inc()
	default:
		j.err = err
		s.failed.Inc()
	}
	close(j.done)
	j.mu.Unlock()
}

// runResilient executes a job function with the scheduler's fault handling:
// a panic is recovered and quarantines the request (the worker survives and
// the job is never re-run); an error marked via faults.Transient is retried
// up to retryMax times with exponential backoff plus jitter; the chaos
// injector, when installed, gets a shot at stalling, failing, or panicking
// each attempt before the real work runs.
func (s *Scheduler) runResilient(ctx context.Context, run func(context.Context) (any, error)) (res any, err error, retries int, quarantined bool) {
	for attempt := 0; ; attempt++ {
		res, err, quarantined = s.attempt(ctx, run)
		if err == nil || quarantined || !faults.IsTransient(err) ||
			attempt >= s.retryMax || ctx.Err() != nil {
			return res, err, retries, quarantined
		}
		retries++
		s.retriesCtr.Inc()
		backoff := s.retryBase << attempt
		s.jitterMu.Lock()
		backoff += time.Duration(s.jitter.Int63n(int64(backoff)/2 + 1))
		s.jitterMu.Unlock()
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return res, err, retries, quarantined
		}
	}
}

// attempt runs one execution under a panic guard.
func (s *Scheduler) attempt(ctx context.Context, run func(context.Context) (any, error)) (res any, err error, quarantined bool) {
	defer func() {
		if r := recover(); r != nil {
			s.panicked.Inc()
			res, err, quarantined = nil, fmt.Errorf("%w: %v", ErrPanicked, r), true
		}
	}()
	s.chaos.Stall(ctx)
	if s.chaos.ShouldPanic() {
		panic("injected chaos panic")
	}
	if cerr := s.chaos.TransientFailure(); cerr != nil {
		return nil, cerr, false
	}
	res, err = run(ctx)
	return res, err, false
}

// pruneLocked evicts the oldest terminal jobs once the table exceeds the
// retention bound, returning the evicted ids (for the recorder — callers
// notify it after releasing s.mu). Queued/running jobs are never evicted.
// Callers hold s.mu.
func (s *Scheduler) pruneLocked() []string {
	if len(s.jobs) <= s.retain {
		return nil
	}
	var pruned []string
	keep := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if len(s.jobs) > s.retain {
			j.mu.Lock()
			terminal := j.state.Terminal()
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				pruned = append(pruned, id)
				continue
			}
		}
		keep = append(keep, id)
	}
	s.order = keep
	return pruned
}

// durationBounds are histogram bin bounds for job/request durations in
// nanoseconds: 64 µs doubling up to ~34 s.
var durationBounds = []float64{
	65536, 131072, 262144, 524288, 1048576, // 64 µs .. 1 ms
	2097152, 4194304, 8388608, 16777216, 33554432, // .. 33 ms
	67108864, 134217728, 268435456, 536870912, 1073741824, // .. 1 s
	2147483648, 4294967296, 8589934592, 17179869184, 34359738368, // .. 34 s
}
