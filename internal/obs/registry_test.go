package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x")
	const goroutines, per = 16, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("concurrent increments lost: got %d want %d", got, goroutines*per)
	}
}

func TestCounterHandleStable(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("same name must return the same counter")
	}
	if reg.Counter("a") == reg.Counter("b") {
		t.Error("different names must return different counters")
	}
}

func TestGaugeSetAndMax(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("g")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Errorf("Set: got %v", g.Value())
	}
	g.SetMax(2) // lower: ignored
	if g.Value() != 3.5 {
		t.Errorf("SetMax lowered the gauge: %v", g.Value())
	}
	g.SetMax(7)
	if g.Value() != 7 {
		t.Errorf("SetMax: got %v", g.Value())
	}
}

func TestGaugeConcurrentSetMax(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("hwm")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				g.SetMax(float64(w*5000 + i))
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8*5000-1 {
		t.Fatalf("high-water mark = %v, want %v", got, 8*5000-1)
	}
}

// TestGaugeConcurrentAdd: balanced +1/-1 pairs from many goroutines must
// leave the gauge at exactly zero (a Set(Value()+d) read-modify-write
// would drop updates here).
func TestGaugeConcurrentAdd(t *testing.T) {
	g := NewRegistry().Gauge("inflight")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge after balanced adds = %v, want 0", got)
	}
}

func TestHistogramBinningAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{10, 100})
	for _, v := range []float64{1, 5, 10, 50, 99.9, 100, 1000} {
		h.Observe(v)
	}
	s := reg.Snapshot().Histograms["lat"]
	// <=10: {1,5,10}; <=100: {50,99.9,100}; overflow: {1000}.
	if s.Counts[0] != 3 || s.Counts[1] != 3 || s.Counts[2] != 1 {
		t.Errorf("counts = %v", s.Counts)
	}
	if s.Count != 7 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if got := s.Mean(); math.Abs(got-(1+5+10+50+99.9+100+1000)/7) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if q := s.Quantile(0.5); q != 100 {
		t.Errorf("p50 bound = %v, want 100", q)
	}
	if q := s.Quantile(1); q != 1000 {
		t.Errorf("p100 = %v, want max", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != 16000 || s.Sum != 16000 || s.Counts[1] != 16000 {
		t.Fatalf("lost observations: %+v", s)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", nil)
	c.Add(5)
	g.Set(2)
	h.Observe(100)

	s := reg.Snapshot()
	if s.Counters["c"] != 5 || s.Gauges["g"] != 2 || s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}

	reg.Reset()
	// Cached handles survive a reset.
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("reset did not zero metrics")
	}
	c.Inc()
	if reg.Snapshot().Counters["c"] != 1 {
		t.Error("handle dead after reset")
	}
	if reg.Snapshot().Histograms["h"].Count != 0 {
		t.Error("histogram not reset")
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// None of these may panic.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	h.Observe(4)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil handles must read zero")
	}
	reg.Reset()
	if s := reg.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot must be empty")
	}

	var sc *Scope
	if sc.Registry() != nil || sc.Tracer() != nil || sc.Enabled() {
		t.Error("nil scope must be disabled")
	}
}

func TestDefaultScope(t *testing.T) {
	orig := Default()
	defer SetDefault(orig)

	if Default() == nil {
		t.Fatal("Default must never be nil")
	}
	reg := NewRegistry()
	SetDefault(&Scope{Reg: reg})
	if Default().Reg != reg {
		t.Error("SetDefault not visible")
	}
	if !Default().Enabled() {
		t.Error("scope with registry must report enabled")
	}
	SetDefault(nil)
	if d := Default(); d == nil || d.Enabled() {
		t.Error("SetDefault(nil) must restore a disabled, non-nil scope")
	}
}

func TestSnapshotWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.count").Add(3)
	reg.Gauge("b.level").Set(2.5)
	reg.Histogram("c.lat", nil).Observe(100)
	var sb strings.Builder
	if err := reg.Snapshot().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Counters["a.count"] != 3 || back.Gauges["b.level"] != 2.5 {
		t.Errorf("round-tripped snapshot = %+v", back)
	}
	if back.Histograms["c.lat"].Count != 1 {
		t.Errorf("histogram count = %d, want 1", back.Histograms["c.lat"].Count)
	}
}
