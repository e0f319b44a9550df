package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSimulateRequest drives arbitrary bodies through the in-process
// handler. Every body must get a 4xx, or a 200 whose body is non-empty JSON
// that decodes into a SimulateResponse: never a 5xx, never a panic. An
// accepted request must keep its canonical keys through a marshal round
// trip, as FuzzExploreRequest checks for explore.
func FuzzSimulateRequest(f *testing.F) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := New(ctx, Config{Workers: 2}).Handler()
	for _, seed := range []string{
		`{"cus":320,"freq_mhz":1e300,"bw_tbps":3,"kernel":"CoMD"}`,
		`{"cus":256,"freq_mhz":1200,"bw_tbps":2,"kernel":"HPGMG","options":{"policy":"hardware-cache","miss_frac":0.1,"optimizations":["ntc"],"temp_c":85}}`,
		`{"kernel":"gemm:512x512x512:fp16","scenario":"serving","batches":"1,4","requests":200,"qps":1000}`,
		`{"kernel":"SNAP","fault_mask":"gpu:2","seed":7,"detailed":true}`,
		`{"kernel":"CoMD","detailed":true,"bw_tbps":1e-300}`,
		`{"kernel":"gemm:512x512x512:fp16","scenario":"serving","qps":1e-300}`,
		`{"kernel":"gemm:65536x65536x65536:fp16","scenario":"serving","bw_tbps":0.001,"freq_mhz":1,"cus":8,"batches":"256"}`,
		`{"kernel":"CoMD"}]`,
		`{"kernel":"CoMD"}}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			return
		case rec.Code != http.StatusOK:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		var resp SimulateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 for %q with a body that does not decode (%v): %q", body, err, rec.Body)
		}
		req, again := decodeTwice[SimulateRequest](t, body)
		job, err := req.resolve()
		job2, err2 := again.resolve()
		if err != nil || err2 != nil || job.key != job2.key || job.detailedKey != job2.detailedKey {
			t.Fatalf("keys of %q changed through a marshal round trip: %s/%s (%v) -> %s/%s (%v)", body, job.key, job.detailedKey, err, job2.key, job2.detailedKey, err2)
		}
	})
}

// TestWriteJSONEncodeFailure: a value that cannot be encoded goes out as a
// 500 with an error body, counted as an error, never as an empty 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.instrument("encode-test", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]float64{"node_w": math.Inf(1)})
	})
	errs := s.reg.Counter("service.http.errors")
	before := errs.Value()
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %q)", rec.Code, rec.Body)
	}
	var body struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "unsupported value") {
		t.Fatalf("body %q (%v), want an error naming the encode failure", rec.Body, err)
	}
	if got := errs.Value() - before; got != 1 {
		t.Fatalf("service.http.errors rose by %d, want 1", got)
	}
}
