package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// newClient returns an HTTP client holding at most conns connections per
// host: the benchmark's whole load goes through conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// do sends one request and reads the whole response body into buf.
func do(ctx context.Context, client *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// statusErr reports an unexpected HTTP status with the start of the body.
func statusErr(what string, status int, body []byte) error {
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("%s: HTTP %d: %s", what, status, bytes.TrimSpace(body))
}

// op is one benchmark operation: worker is the calling goroutine's index
// (for per-goroutine buffers) and seq the operation's position in its
// phase. It returns when the operation's result arrived, before any
// correctness check, so checking is not timed.
type op func(ctx context.Context, worker, seq int) (arrived time.Time, err error)

// errExhausted ends a loop early when an op has no more inputs.
var errExhausted = errors.New("input stream exhausted")

// loopResult is what a closed loop or an open-loop stage measured.
type loopResult struct {
	lat       []float64 // per operation, ms; +Inf for a failure
	seq       []int     // each operation's seq, parallel to lat
	lateness  []float64 // open loop only: send time minus due time, ms
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

// tally counts a finished loop's failures from its latency sample.
func (r *loopResult) tally() {
	r.attempted = len(r.lat)
	r.failed = 0
	for _, v := range r.lat {
		if math.IsInf(v, 1) {
			r.failed++
		}
	}
}

// closedLoop runs workers goroutines that each issue fn back to back until
// d has passed or, when limit > 0, limit operations have started. A failed
// operation is recorded as +Inf, which counts it beyond any latency limit.
func closedLoop(ctx context.Context, workers int, d time.Duration, limit int, fn op) loopResult {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		wg       sync.WaitGroup
		parts    = make([]loopResult, workers)
		firstErr error
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			for ctx.Err() == nil && time.Now().Before(deadline) {
				seq := int(next.Add(1) - 1)
				if limit > 0 && seq >= limit {
					return
				}
				t0 := time.Now()
				arrived, err := fn(ctx, w, seq)
				if errors.Is(err, errExhausted) {
					return
				}
				lat := ms(arrived.Sub(t0))
				if err != nil {
					lat = math.Inf(1)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
				p.lat = append(p.lat, lat)
				p.seq = append(p.seq, seq)
			}
		}(w)
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start), firstErr: firstErr}
	for _, p := range parts {
		res.lat = append(res.lat, p.lat...)
		res.seq = append(res.seq, p.seq...)
	}
	res.tally()
	return res
}

// join concatenates loops run one after another.
func join(ls ...loopResult) loopResult {
	var all loopResult
	for _, l := range ls {
		all.lat = append(all.lat, l.lat...)
		all.seq = append(all.seq, l.seq...)
		all.lateness = append(all.lateness, l.lateness...)
		all.elapsed += l.elapsed
		if all.firstErr == nil {
			all.firstErr = l.firstErr
		}
	}
	all.tally()
	return all
}

// poissonSchedule returns the due times, as offsets from the stage start,
// of a Poisson arrival process at rate per second over d. It is built from
// the seed before the stage starts, so a stage's offered load does not
// depend on how the server or the generator behaves during it.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// sleepUntil blocks the calling thread until t with nanosleep(2). A Go timer
// in an otherwise idle process wakes at millisecond granularity (the
// netpoller's epoll timeout), which would add up to a millisecond to every
// due-time latency; a blocking nanosleep wakes within the thread's timer
// slack (see preciseThread).
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// preciseThread locks the calling goroutine to its thread and sets the
// thread's timer slack to 1 ns, so its nanosleeps end on time instead of up
// to 50 µs (the default slack) late. The returned func unlocks the thread.
func preciseThread() func() {
	runtime.LockOSThread()
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0) // best effort: a failure only costs precision
	return runtime.UnlockOSThread
}

// openLoop sends request i of the schedule no earlier than its due time,
// from one of senders goroutines, each holding one connection. A sender that
// is still waiting on an earlier response sends late; every latency is
// timed from the due time, so a stall shows in the requests queued behind
// it, and the lateness sample shows whether the generator kept up. A failed
// or refused request is recorded as +Inf.
func openLoop(ctx context.Context, senders int, due []time.Duration, fn op) loopResult {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	res := loopResult{lat: make([]float64, len(due)), seq: make([]int, len(due)), lateness: make([]float64, len(due))}
	for i := range res.seq {
		res.seq[i] = i
	}
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer preciseThread()()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if ctx.Err() == nil {
					sleepUntil(at)
				}
				sent := time.Now()
				res.lateness[i] = ms(sent.Sub(at))
				arrived, err := fn(ctx, w, i)
				if err != nil {
					res.lat[i] = math.Inf(1)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				res.lat[i] = ms(arrived.Sub(at))
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.firstErr = firstErr
	res.tally()
	return res
}
