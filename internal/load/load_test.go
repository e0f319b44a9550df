package load

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ena/internal/service"
)

func TestKeyPoolDeterministicAndSkewed(t *testing.T) {
	p1 := newKeyPool(32, 1.2, 7, false)
	p2 := newKeyPool(32, 1.2, 7, false)
	for i := 0; i < 100; i++ {
		a, b := p1.next(), p2.next()
		if string(a) != string(b) {
			t.Fatalf("draw %d diverged under the same seed:\n%s\n%s", i, a, b)
		}
	}
	// The head of the Zipf must dominate: the hottest body shows up far
	// more often than a uniform draw would allow.
	p := newKeyPool(32, 1.2, 7, false)
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		counts[string(p.next())]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 2000/8 {
		t.Errorf("hottest key drawn %d/2000 times; distribution not skewed", max)
	}
}

func TestClosedLoopAgainstService(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := service.New(ctx, service.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL,
		Mode:    Closed,
		Keys:    8,
		Seed:    3,
		Stages: []Stage{
			{Concurrency: 1, Duration: 150 * time.Millisecond},
			{Concurrency: 4, Duration: 150 * time.Millisecond},
		},
		Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(rep.Stages))
	}
	for _, st := range rep.Stages {
		if st.Requests == 0 || st.OK == 0 {
			t.Errorf("stage %s saw no successful traffic: %+v", st.Name, st)
		}
		if st.Errors != 0 {
			t.Errorf("stage %s errors = %d, want 0", st.Name, st.Errors)
		}
		if st.LatencyMsP50 <= 0 || st.LatencyMsMax < st.LatencyMsP99 {
			t.Errorf("stage %s latency summary inconsistent: %+v", st.Name, st)
		}
	}
	// A small hot pool against the result cache: most requests coalesce.
	if rep.Stages[1].Cached == 0 {
		t.Error("no cached serves despite an 8-key pool; cache layering broken?")
	}
}

// TestClosedLoopReusesConnections: each closed-loop client keeps its
// keep-alive connection for a whole stage. The stub's body is a JSON value
// followed by a long whitespace run, so the client's decoder stops well
// before EOF; closing the body there would cost a fresh dial per request.
// The bound allows one spare dial per client: while the clients start up,
// the transport may race a dial against a connection about to turn idle.
func TestClosedLoopReusesConnections(t *testing.T) {
	const clients = 2
	var dials atomic.Int64
	stub := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"cached": true}` + strings.Repeat(" ", 4096) + "\n"))
	}))
	stub.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	stub.Start()
	defer stub.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL: stub.URL,
		Mode:    Closed,
		Stages:  []Stage{{Concurrency: clients, Duration: 200 * time.Millisecond}},
		Client:  stub.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stages[0]
	if st.OK < 20*clients || st.Cached != st.OK {
		t.Fatalf("stage saw too little traffic or misread the bodies: %+v", st)
	}
	if d := dials.Load(); d > 2*clients {
		t.Fatalf("%d connections for %d clients over %d requests, want at most %d", d, clients, st.Requests, 2*clients)
	}
}

// A server that sheds half its traffic: the report must separate shed from
// error and keep goodput to the accepted half.
func TestShedIsCountedSeparately(t *testing.T) {
	var n atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"cached":false,"tflops":1}`))
	}))
	defer stub.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL: stub.URL,
		Mode:    Closed,
		Stages:  []Stage{{Concurrency: 2, Duration: 100 * time.Millisecond}},
		Client:  stub.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stages[0]
	if st.Shed == 0 {
		t.Fatalf("no shed recorded: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("503s miscounted as errors: %+v", st)
	}
	if st.OK+st.Shed != st.Requests {
		t.Fatalf("accounting mismatch: %+v", st)
	}
}

func TestOpenLoopPacing(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer stub.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL: stub.URL,
		Mode:    Open,
		Stages:  []Stage{{QPS: 200, Concurrency: 64, Duration: 250 * time.Millisecond}},
		Client:  stub.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stages[0]
	if st.Requests < 20 {
		t.Errorf("open loop issued only %d requests at 200 QPS over 250ms", st.Requests)
	}
	if st.OfferedQPS > 300 {
		t.Errorf("offered %g QPS, far above the 200 target", st.OfferedQPS)
	}
}

func TestReportArtifacts(t *testing.T) {
	rep := Report{
		BaseURL: "http://x", Mode: "closed", Keys: 8, ZipfS: 1.2, Seed: 1,
		Stages: []StageResult{{Name: "closed-c2", Concurrency: 2, Requests: 10, OK: 9, Shed: 1, Goodput: 90}},
	}
	var b strings.Builder
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Stages[0].OK != 9 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
	text := rep.Render()
	if !strings.Contains(text, "closed-c2") || !strings.Contains(text, "goodput/s") {
		t.Errorf("render missing columns:\n%s", text)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("missing BaseURL accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Mode: "sideways", Stages: []Stage{{}}}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x"}); err == nil {
		t.Error("empty ramp accepted")
	}
	if _, err := Run(context.Background(), Config{
		BaseURL: "http://x", Mode: Open, Stages: []Stage{{Duration: 10 * time.Millisecond}},
	}); err == nil {
		t.Error("open loop without qps accepted")
	}
}
