// Package obs is the zero-dependency observability layer of the ENA stack:
// a concurrency-safe metrics registry (counters, gauges, histograms with
// snapshot/reset), a structured trace emitter that exports Chrome
// trace_event JSON, and per-run reports that aggregate metrics into a
// human-readable and JSON summary.
//
// Every handle type is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Histogram, *Tracer or *Scope are no-ops (or zero values), so
// instrumented code paths cost a single nil check when observability is
// disabled. The intended pattern is
//
//	reg := opt.Reg                       // explicit per-call registry ...
//	if reg == nil && opt.Tracer == nil { //
//		sc := obs.Default()          // ... or the process default
//		reg, _ = sc.Reg, sc.Tr
//	}
//	requests := reg.Counter("noc.requests") // nil when reg is nil
//	...
//	requests.Add(n) // no-op on nil
//
// Hot loops should resolve handles once up front and aggregate locally when
// possible; the simulators in internal/noc, internal/dse and
// internal/thermal follow that discipline so the uninstrumented path
// stays within noise of the pre-observability baseline.
package obs

import "sync/atomic"

// Track ("pid") assignments the ENA simulators use when writing one combined
// trace: wall-clock harness spans and each simulated-time emitter get their
// own track so chrome://tracing renders them as separate processes.
const (
	PIDHarness = 0
	PIDNoC     = 1
	PIDDSE     = 3
	PIDThermal = 4
)

// Scope bundles the two observability sinks an instrumented call site may
// write to. A nil Scope (or nil fields) disables the corresponding sink.
type Scope struct {
	Reg *Registry
	Tr  *Tracer
}

// Registry returns the scope's registry (nil on a nil scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.Reg
}

// Tracer returns the scope's tracer (nil on a nil scope).
func (s *Scope) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tr
}

// Enabled reports whether either sink is live.
func (s *Scope) Enabled() bool { return s != nil && (s.Reg != nil || s.Tr != nil) }

// defaultScope is the process-wide scope picked up by simulators whose
// callers did not pass one explicitly (the CLIs set it from -metrics/-trace
// flags). The zero default is a disabled scope, never nil.
var defaultScope atomic.Pointer[Scope]

func init() { defaultScope.Store(&Scope{}) }

// Default returns the process-default scope. The result is never nil; with
// no SetDefault call it is a disabled scope whose handles are all nil.
func Default() *Scope { return defaultScope.Load() }

// SetDefault installs the process-default scope (nil restores the disabled
// default). Safe for concurrent use, though it is typically called once at
// CLI start-up before any simulation runs.
func SetDefault(s *Scope) {
	if s == nil {
		s = &Scope{}
	}
	defaultScope.Store(s)
}
