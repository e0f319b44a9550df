package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzExploreRequest drives arbitrary bodies through the in-process explore
// handler. Every body must get a 4xx, or a 202 whose body decodes to a job
// with an id: never a 5xx, never a panic. Each accepted job is cancelled at
// once and awaited, so the fuzz never queues real sweeps. An accepted
// request must keep its canonical key through a marshal round trip, the way
// journal recovery and adoption rebuild a job from its stored spec.
func FuzzExploreRequest(f *testing.F) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, Config{Workers: 1})
	h := s.Handler()
	for _, seed := range []string{
		`{}`,
		`{"ext_modules":[1125899906842624]}`,
		`{"freqs_mhz":[1000,1e300]}`,
		`{"cus":[256,320],"freqs_mhz":[1000,800],"bws_tbps":[3],"kernels":["CoMD","SNAP"],"budget_w":140,"optimizations":["ntc"]}`,
		`{"gpu_chiplets":[4,8],"hbm_stack_gbs":[16],"ext_modules":[2],"explorer":"surrogate","eval_budget":8,"seed":3}`,
		`{"explorer":"exhaustive","timeout_sec":0.5}`,
		`{"kernels":["CoMD"]}]`,
		`{"kernels":["CoMD"]}}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(body)))
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			return
		case rec.Code != http.StatusAccepted:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		var resp struct{ Job JobView }
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Job.ID == "" {
			t.Fatalf("202 for %q with a body that is not a job (%v): %q", body, err, rec.Body)
		}
		del := httptest.NewRecorder()
		h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+resp.Job.ID, nil))
		if del.Code != http.StatusOK {
			t.Fatalf("cancel %s: status %d: %s", resp.Job.ID, del.Code, del.Body)
		}
		if _, err := s.sched.Wait(ctx, resp.Job.ID); err != nil {
			t.Fatalf("wait %s: %v", resp.Job.ID, err)
		}

		req, again := decodeTwice[ExploreRequest](t, body)
		ej, err := req.resolve()
		ej2, err2 := again.resolve()
		if err != nil || err2 != nil || ej.key != ej2.key {
			t.Fatalf("key of %q changed through a marshal round trip: %s (%v) -> %s (%v)", body, ej.key, err, ej2.key, err2)
		}
	})
}

// decodeTwice decodes an accepted body as the handler does, and again after
// a marshal round trip, the way the job journal stores and restores a spec.
func decodeTwice[T any](t *testing.T, body string) (T, T) {
	t.Helper()
	var req, again T
	if err := decodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)), &req); err != nil {
		t.Fatalf("accepted body %q does not decode: %v", body, err)
	}
	b, err := json.Marshal(req)
	if err == nil {
		err = json.Unmarshal(b, &again)
	}
	if err != nil {
		t.Fatalf("round trip of %q: %v", body, err)
	}
	return req, again
}
