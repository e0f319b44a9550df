package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers 200 except that request stall (counting from 0)
// sleeps d first and request fail answers 503.
func stallServer(stall int, d time.Duration, fail int) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch int(n.Add(1) - 1) {
		case stall:
			time.Sleep(d)
		case fail:
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	}))
}

func getOp(client *http.Client, url string) op {
	var buf bytes.Buffer
	return func(ctx context.Context, w, seq int) (time.Time, error) {
		status, err := do(ctx, client, http.MethodGet, url, nil, &buf)
		arrived := time.Now()
		if err == nil && status != http.StatusOK {
			err = statusErr("get", status, buf.Bytes())
		}
		return arrived, err
	}
}

// One sender, a request due every 2 ms, and a 60 ms stall on request 5:
// every later request waits for the stall, and its latency, timed from its
// due time, must show that wait even though the server answers it at once.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	srv := stallServer(5, 60*time.Millisecond, -1)
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * 2 * time.Millisecond
	}
	res := openLoop(context.Background(), 1, due, getOp(client, srv.URL))
	if res.failed != 0 {
		t.Fatalf("%d failed: %v", res.failed, res.firstErr)
	}
	// Request 5 is sent no earlier than 10 ms and returns no earlier than
	// 70 ms; request k is due at 2k ms and cannot be sent before 70 ms.
	for k := 6; k < len(due); k++ {
		if want := float64(70 - 2*k); res.lat[k] < want {
			t.Errorf("request %d latency %.2f ms; the stall puts it at >= %.0f ms", k, res.lat[k], want)
		}
	}
	if res.lateness[6] < 58 {
		t.Errorf("request 6 sent %.2f ms late; the stall makes it >= 58 ms", res.lateness[6])
	}
	if res.lat[4] >= 30 {
		t.Errorf("request 4, before the stall, took %.2f ms", res.lat[4])
	}
}

// A refused request is recorded as +Inf, so it counts beyond any latency
// limit instead of leaving the sample.
func TestOpenLoopCountsRefusalsBeyondTheLimit(t *testing.T) {
	srv := stallServer(-1, 0, 3)
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	due := make([]time.Duration, 8)
	res := openLoop(context.Background(), 1, due, getOp(client, srv.URL))
	if res.attempted != 8 || res.failed != 1 || !math.IsInf(res.lat[3], 1) {
		t.Fatalf("attempted %d failed %d lat[3] %v; want 8, 1, +Inf", res.attempted, res.failed, res.lat[3])
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(newRand(7, "x"), 1000, time.Second)
	b := poissonSchedule(newRand(7, "x"), 1000, time.Second)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("same seed, different schedules")
	}
	if len(a) < 900 || len(a) > 1100 || a[len(a)-1] >= time.Second {
		t.Fatalf("%d arrivals ending at %v for 1000/s over 1 s", len(a), a[len(a)-1])
	}
}
