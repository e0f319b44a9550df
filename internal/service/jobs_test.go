package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ena/internal/obs"
)

func waitTerminal(t *testing.T, s *Scheduler, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v (state %s)", id, err, v.State)
	}
	return v
}

func TestSchedulerRunsJob(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewScheduler(context.Background(), 2, 8, 16, reg)
	defer s.Drain(context.Background())

	v, err := s.Submit("test", 0, func(ctx context.Context) (any, error) {
		return "ok", nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if v.State != JobQueued && v.State != JobRunning && v.State != JobDone {
		t.Fatalf("fresh job state = %s", v.State)
	}
	v = waitTerminal(t, s, v.ID)
	if v.State != JobDone || v.Result != "ok" {
		t.Fatalf("job = %+v, want done/ok", v)
	}
	if v.Started == nil || v.Finished == nil {
		t.Error("done job missing started/finished timestamps")
	}
	snap := reg.Snapshot()
	if snap.Counters["service.jobs.submitted"] != 1 || snap.Counters["service.jobs.completed"] != 1 {
		t.Errorf("submitted/completed = %d/%d, want 1/1",
			snap.Counters["service.jobs.submitted"], snap.Counters["service.jobs.completed"])
	}
}

func TestSchedulerJobFailure(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewScheduler(context.Background(), 1, 8, 16, reg)
	defer s.Drain(context.Background())

	boom := errors.New("kernel exploded")
	v, err := s.Submit("test", 0, func(ctx context.Context) (any, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v = waitTerminal(t, s, v.ID)
	if v.State != JobFailed {
		t.Fatalf("state = %s, want failed", v.State)
	}
	if v.Error != boom.Error() {
		t.Errorf("error = %q, want %q", v.Error, boom.Error())
	}
	if v.Result != nil {
		t.Errorf("failed job leaked a result: %v", v.Result)
	}
	if n := reg.Snapshot().Counters["service.jobs.failed"]; n != 1 {
		t.Errorf("failed counter = %d, want 1", n)
	}
}

func TestSchedulerCancelRunning(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewScheduler(context.Background(), 1, 8, 16, reg)
	defer s.Drain(context.Background())

	started := make(chan struct{})
	v, err := s.Submit("test", 0, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	if _, ok := s.Cancel(v.ID); !ok {
		t.Fatal("Cancel: job not found")
	}
	v = waitTerminal(t, s, v.ID)
	if v.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", v.State)
	}
	if n := reg.Snapshot().Counters["service.jobs.cancelled"]; n != 1 {
		t.Errorf("cancelled counter = %d, want 1", n)
	}
}

func TestSchedulerCancelQueued(t *testing.T) {
	s := NewScheduler(context.Background(), 1, 8, 16, obs.NewRegistry())
	defer s.Drain(context.Background())

	// Occupy the single worker so the next job stays queued.
	gate := make(chan struct{})
	started := make(chan struct{})
	blocker, err := s.Submit("blocker", 0, func(ctx context.Context) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started

	ran := false
	queued, err := s.Submit("victim", 0, func(ctx context.Context) (any, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit victim: %v", err)
	}
	v, ok := s.Cancel(queued.ID)
	if !ok || v.State != JobCancelled {
		t.Fatalf("Cancel queued = (%+v, %v), want cancelled", v, ok)
	}
	close(gate)
	waitTerminal(t, s, blocker.ID)
	s.Drain(context.Background()) // workers idle; queued victim must be skipped
	if ran {
		t.Error("cancelled queued job still executed")
	}
}

// doneProbe is a jobRecorder that, on each transition, notes whether the
// job's done channel had already closed and how many cancellations the
// scheduler had counted: persist-before-publish says neither may show a
// terminal state before the journal has it.
type doneProbe struct {
	s       *Scheduler
	reg     *obs.Registry
	mu      sync.Mutex
	entries []probeEntry
}

type probeEntry struct {
	id        string
	state     JobState
	doneOpen  bool
	cancelled int64
}

func (p *doneProbe) transition(id string, state JobState, _ string, _ bool) {
	p.s.mu.Lock()
	j := p.s.jobs[id]
	p.s.mu.Unlock()
	open := true
	select {
	case <-j.done:
		open = false
	default:
	}
	p.mu.Lock()
	p.entries = append(p.entries, probeEntry{id, state, open, p.reg.Counter("service.jobs.cancelled").Value()})
	p.mu.Unlock()
}

func (p *doneProbe) pruned(string) {}

// TestSchedulerCancelQueuedJournalsBeforeDone: cancelling a queued job
// journals the cancellation while its done channel is still open and before
// service.jobs.cancelled counts it.
func TestSchedulerCancelQueuedJournalsBeforeDone(t *testing.T) {
	reg := obs.NewRegistry()
	probe := &doneProbe{reg: reg}
	s := NewScheduler(context.Background(), 1, 8, 16, reg, WithRecorder(probe))
	probe.s = s
	defer s.Drain(context.Background())

	gate := make(chan struct{})
	started := make(chan struct{})
	blocker, err := s.Submit("blocker", 0, func(ctx context.Context) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started
	queued, err := s.Submit("victim", 0, func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatalf("Submit victim: %v", err)
	}
	if v, ok := s.Cancel(queued.ID); !ok || v.State != JobCancelled {
		t.Fatalf("Cancel queued = (%+v, %v), want cancelled", v, ok)
	}
	close(gate)
	waitTerminal(t, s, blocker.ID)
	waitTerminal(t, s, queued.ID)

	probe.mu.Lock()
	defer probe.mu.Unlock()
	var got []probeEntry
	for _, e := range probe.entries {
		if e.id == queued.ID {
			got = append(got, e)
		}
	}
	if len(got) != 1 || got[0].state != JobCancelled {
		t.Fatalf("victim transitions = %+v, want exactly one cancelled entry", got)
	}
	if !got[0].doneOpen || got[0].cancelled != 0 {
		t.Fatalf("cancellation journalled after publish: done open=%v, cancelled counter=%d",
			got[0].doneOpen, got[0].cancelled)
	}
	if c := reg.Counter("service.jobs.cancelled").Value(); c != 1 {
		t.Fatalf("service.jobs.cancelled = %d after the journal entry, want 1", c)
	}
}

func TestSchedulerJobTimeout(t *testing.T) {
	s := NewScheduler(context.Background(), 1, 8, 16, obs.NewRegistry())
	defer s.Drain(context.Background())

	v, err := s.Submit("test", 5*time.Millisecond, func(ctx context.Context) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return "too late", nil
		}
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v = waitTerminal(t, s, v.ID)
	// DeadlineExceeded is not Canceled, so the job lands in failed.
	if v.State != JobFailed {
		t.Fatalf("state = %s, want failed (deadline)", v.State)
	}
	if v.Error != context.DeadlineExceeded.Error() {
		t.Errorf("error = %q, want deadline exceeded", v.Error)
	}
}

func TestSchedulerQueueFull(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewScheduler(context.Background(), 1, 1, 16, reg)
	defer s.Drain(context.Background())

	gate := make(chan struct{})
	started := make(chan struct{})
	block := func(ctx context.Context) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return nil, nil
	}
	if _, err := s.Submit("a", 0, block); err != nil { // taken by the worker
		t.Fatalf("Submit a: %v", err)
	}
	<-started
	if _, err := s.Submit("b", 0, block); err != nil { // fills the queue slot
		t.Fatalf("Submit b: %v", err)
	}
	if _, err := s.Submit("c", 0, block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit c err = %v, want ErrQueueFull", err)
	}
	if n := reg.Snapshot().Counters["service.jobs.rejected"]; n != 1 {
		t.Errorf("rejected counter = %d, want 1", n)
	}
	close(gate)
}

func TestSchedulerDrainRejectsAndWaits(t *testing.T) {
	s := NewScheduler(context.Background(), 2, 8, 16, obs.NewRegistry())

	gate := make(chan struct{})
	v, err := s.Submit("slow", 0, func(ctx context.Context) (any, error) {
		<-gate
		return "finished", nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(gate)
	}()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	got, ok := s.Get(v.ID)
	if !ok || got.State != JobDone || got.Result != "finished" {
		t.Errorf("after drain job = (%+v, %v), want done/finished", got, ok)
	}
	if _, err := s.Submit("late", 0, func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after drain err = %v, want ErrDraining", err)
	}
}

func TestSchedulerDrainForcesCancellation(t *testing.T) {
	s := NewScheduler(context.Background(), 1, 8, 16, obs.NewRegistry())

	started := make(chan struct{})
	v, err := s.Submit("stubborn", 0, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // only stops when forced
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain err = %v, want deadline exceeded", err)
	}
	got, _ := s.Get(v.ID)
	if got.State != JobCancelled {
		t.Errorf("job state after forced drain = %s, want cancelled", got.State)
	}
}

func TestSchedulerPruneKeepsRecentAndLive(t *testing.T) {
	s := NewScheduler(context.Background(), 2, 32, 4, obs.NewRegistry())
	defer s.Drain(context.Background())

	var ids []string
	for i := 0; i < 10; i++ {
		v, err := s.Submit(fmt.Sprintf("j%d", i), 0, func(ctx context.Context) (any, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitTerminal(t, s, v.ID)
		ids = append(ids, v.ID)
	}
	// Submitting each next job prunes terminal ones beyond retain=4.
	kept := 0
	for _, id := range ids {
		if _, ok := s.Get(id); ok {
			kept++
		}
	}
	if kept > 5 { // retain bound, +1 slack for the last submit racing its prune
		t.Errorf("kept %d terminal jobs, retain is 4", kept)
	}
	// The most recent job must still be queryable.
	if _, ok := s.Get(ids[len(ids)-1]); !ok {
		t.Error("most recent job was pruned")
	}
}

func TestSchedulerBaseContextCancelAbortsJobs(t *testing.T) {
	base, cancelBase := context.WithCancel(context.Background())
	s := NewScheduler(base, 1, 8, 16, obs.NewRegistry())

	started := make(chan struct{})
	v, err := s.Submit("test", 0, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	cancelBase()
	got := waitTerminal(t, s, v.ID)
	if got.State != JobCancelled {
		t.Errorf("state = %s, want cancelled via base context", got.State)
	}
	s.Drain(context.Background())
}
