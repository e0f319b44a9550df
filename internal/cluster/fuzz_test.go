package cluster

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ena/internal/obs"
)

// FuzzShardRequest drives arbitrary bodies through both shard routes of the
// in-process worker handler. Every body must get a 400, or a 200 NDJSON
// stream whose last line is a "done" or "error" line; nothing may panic.
func FuzzShardRequest(f *testing.F) {
	h := WorkerHandler(obs.NewRegistry())
	for _, seed := range []struct {
		kind bool // false: explore, true: scale
		body string
	}{
		{false, validExplore},
		{false, crashExplore},
		{false, `{"v":3,` + exploreJobJSON + `,"start":5,"items":[{"cus":256,"freq_mhz":800,"bw_tbps":1,"gpu_chiplets":4,"hbm_stack_gb":16,"ext_modules":2},{"cus":384,"freq_mhz":1500,"bw_tbps":7}]}`},
		{false, `{"v":3,"job":{"kernels":["CoMD","SNAP"],"budget_w":-1,"opts":4294967295},"start":0,"items":[{"cus":1,"freq_mhz":1e-300,"bw_tbps":1e300,"gpu_chiplets":384}]}`},
		{true, validScale},
		{true, crashScale},
		{true, strings.Replace(validScale, `"mask":""`, `"mask":"node:2"`, 1)},
		{true, `{"v":3,"job":{"kernel":"HPGMG","topology":"dragonfly","mode":"strong","ideal":true},"start":3,"items":[1,50,1000]}`},
		{false, `{`},
		{true, `{"v":2}`},
	} {
		f.Add(seed.kind, seed.body)
	}
	f.Fuzz(func(t *testing.T, scale bool, body string) {
		path := "/v1/internal/shard/explore"
		if scale {
			path = "/v1/internal/shard/scale"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		var last struct{ Type string }
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(nil, 4<<20)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatalf("bad stream line %q: %v", sc.Bytes(), err)
			}
		}
		if last.Type != "done" && last.Type != "error" {
			t.Fatalf("stream for %q ends in a %q line, want done or error", body, last.Type)
		}
	})
}
