// Package event implements the discrete-event simulation kernel used by the
// detailed chiplet-NoC and memory-system models. It provides a deterministic,
// time-ordered event queue with a simulated clock measured in abstract
// "cycles" (float64 so sub-cycle link serialization can be expressed).
//
// The kernel is intentionally minimal: components schedule closures at future
// times, and Run drains the queue until it is empty or a limit is reached.
// Determinism is guaranteed by running events scheduled for the same instant
// in the order they were scheduled.
//
// The queue is a monotone radix queue of inline 16-byte {key, slot} entries
// over a slot table with a free-list. It relies on the clock never running
// backward: every key scheduled is >= now, and a non-negative timestamp
// orders the same way as its math.Float64bits, so the key is those bits. An
// entry sits in buckets[bits.Len64(key^base)], where base is the last key
// popped, or 0 once the queue drains, so base <= every queued key; a bitmask
// records the non-empty buckets. Push is one append. Pop takes bucket 0
// first-in first-out; when bucket 0 is empty it moves base to the minimum of
// the lowest non-empty bucket, pops that entry and redistributes the rest of
// the bucket, in order, into the buckets below.
// Steady-state scheduling (one pop funding one push, as in the NoC token
// loop and the memory queue) touches no allocator: the buckets and the slot
// table reach their high-water mark once and are reused.
//
// Ties pop in scheduling order without a stored sequence number. Each
// bucket is always in scheduling order: a push appends the newest entry,
// and a redistribution only happens when every lower bucket is empty and
// keeps the entries' order. Bucket 0 holds only keys equal to base, so
// popping it first-in first-out is scheduling order among equal keys.
//
// Nothing rebuilds the queue for a key below base, so base <= now must hold
// wherever user code can schedule: a peek never moves base, a queue that
// drains to empty resets base to 0, and RunUntil drops a cancelled event
// that lies past its deadline in place rather than popping it.
package event

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"

	"ena/internal/obs"
)

// Handler is the work a scheduled event performs. It runs with the simulator
// clock set to the event's timestamp and may schedule further events.
type Handler func()

// entry is one queued event: key is the math.Float64bits of its timestamp.
// The handler itself lives in the slot table so buckets move 16-byte values.
type entry struct {
	key  uint64
	slot int32
}

// slot holds the mutable per-event state referenced by tickets. gen guards
// against stale cancels: it bumps every time the slot is recycled.
type slot struct {
	fn   Handler
	gen  uint32
	dead bool
}

// Ticket identifies a scheduled event so it can be cancelled.
type Ticket struct {
	s    *Sim
	slot int32
	gen  uint32
}

// Cancel marks the event dead; it will be skipped when dequeued. Cancelling
// an already-fired or already-cancelled event is a harmless no-op.
func (t Ticket) Cancel() {
	if t.s == nil {
		return
	}
	if sl := &t.s.slots[t.slot]; sl.gen == t.gen {
		sl.dead = true
	}
}

// Sim is a discrete-event simulator instance. The zero value is not usable;
// create one with NewSim.
type Sim struct {
	now       float64
	base      uint64 // key of the last pop, 0 once drained; <= every queued key
	mask      uint64 // bit b set when buckets[b] is non-empty
	head      int    // next entry to pop from buckets[0]
	pending   int    // queued entries, cancelled ones included
	buckets   [64][]entry
	slots     []slot
	free      []int32
	processed uint64

	// Observability handles (nil unless Instrument is called; the
	// uninstrumented path pays one nil check per event).
	evCounter  *obs.Counter
	depthGauge *obs.Gauge
}

// NewSim returns an empty simulator with the clock at zero.
func NewSim() *Sim {
	return &Sim{}
}

// simPool recycles simulator instances so back-to-back detailed simulations
// (one per DSE point) reuse the buckets and slot table instead of regrowing
// them from scratch each run.
var simPool = sync.Pool{New: func() any { return NewSim() }}

// AcquireSim returns a reset simulator from the package pool.
func AcquireSim() *Sim {
	return simPool.Get().(*Sim)
}

// ReleaseSim resets s (dropping any instrumentation handles) and returns it
// to the pool. The caller must not use s afterwards.
func ReleaseSim(s *Sim) {
	s.Reset()
	s.evCounter = nil
	s.depthGauge = nil
	simPool.Put(s)
}

// Reset restores the simulator to its initial state — clock at zero, empty
// queue, zero counters — while keeping the backing arrays (and any attached
// instrumentation) so a reused instance schedules without reallocating.
// Outstanding tickets are invalidated.
func (s *Sim) Reset() {
	s.now = 0
	s.base, s.mask, s.head, s.pending = 0, 0, 0, 0
	s.processed = 0
	for b := range s.buckets {
		s.buckets[b] = s.buckets[b][:0]
	}
	s.free = s.free[:0]
	for i := range s.slots {
		s.slots[i].fn = nil
		s.slots[i].dead = false
		s.slots[i].gen++ // stale tickets must not cancel future events
		s.free = append(s.free, int32(i))
	}
}

// Instrument attaches metrics to the kernel: prefix+".events" counts
// executed events and prefix+".queue_depth_max" tracks the high-water mark
// of the pending queue. A nil registry leaves the simulator uninstrumented.
func (s *Sim) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	s.evCounter = reg.Counter(prefix + ".events")
	s.depthGauge = reg.Gauge(prefix + ".queue_depth_max")
}

// Now returns the current simulated time in cycles.
func (s *Sim) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending returns the number of events still queued (including cancelled
// events that have not yet been dequeued).
func (s *Sim) Pending() int { return s.pending }

// ErrPastEvent is returned when an event is scheduled before the current time.
var ErrPastEvent = errors.New("event: scheduled in the past")

// At schedules fn to run at absolute time t. Scheduling at the current time
// is allowed (the event runs after already-queued events for that instant).
func (s *Sim) At(t float64, fn Handler) (Ticket, error) {
	if t < s.now {
		return Ticket{}, ErrPastEvent
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return Ticket{}, errors.New("event: non-finite timestamp")
	}
	if t == 0 {
		t = 0 // −0 has the sign bit set, so its bits would sort last
	}
	var si int32
	if n := len(s.free); n > 0 {
		si = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{})
		si = int32(len(s.slots) - 1)
	}
	s.slots[si].fn = fn
	s.push(entry{key: math.Float64bits(t), slot: si})
	s.pending++
	return Ticket{s: s, slot: si, gen: s.slots[si].gen}, nil
}

// After schedules fn to run delay cycles from now; negative delays clamp to 0.
func (s *Sim) After(delay float64, fn Handler) Ticket {
	if delay < 0 {
		delay = 0
	}
	t, err := s.At(s.now+delay, fn)
	if err != nil {
		// Unreachable for finite delays; keep the queue consistent anyway.
		panic(err)
	}
	return t
}

// push appends e to the bucket of its highest bit that differs from base.
func (s *Sim) push(e entry) {
	b := bits.Len64(e.key ^ s.base)
	s.buckets[b] = append(s.buckets[b], e)
	s.mask |= 1 << b
}

// peek locates the earliest entry without moving base: the head of bucket
// 0, else the first minimal entry of the lowest non-empty bucket.
func (s *Sim) peek() (b, i int) {
	if s.mask&1 != 0 {
		return 0, s.head
	}
	b = bits.TrailingZeros64(s.mask)
	q := s.buckets[b]
	for j := 1; j < len(q); j++ {
		if q[j].key < q[i].key {
			i = j
		}
	}
	return b, i
}

// take pops the earliest entry, found by peek at (b, i), recycles its slot,
// and returns its handler; dead is true for a cancelled event (the handler
// is discarded).
func (s *Sim) take(b, i int) (at float64, fn Handler, dead bool) {
	var e entry
	if b == 0 {
		q := s.buckets[0]
		e = q[s.head]
		s.head++
		if s.head == len(q) {
			s.buckets[0], s.head = q[:0], 0
			s.mask &^= 1
		}
	} else {
		// e becomes the new base, and the rest of its bucket moves, in
		// order, into the empty buckets below. A lone entry, the common
		// case of a shallow queue, skips the loops.
		q := s.buckets[b]
		e, s.base = q[i], q[i].key
		if len(q) > 1 {
			for _, r := range q[:i] {
				s.push(r)
			}
			for _, r := range q[i+1:] {
				s.push(r)
			}
		}
		s.buckets[b] = q[:0]
		s.mask &^= 1 << b
	}
	s.pending--
	if s.pending == 0 {
		s.base = 0
	}
	fn, dead = s.release(e.slot)
	return math.Float64frombits(e.key), fn, dead
}

// release recycles slot si and returns the handler it held.
func (s *Sim) release(si int32) (fn Handler, dead bool) {
	sl := &s.slots[si]
	fn, dead = sl.fn, sl.dead
	sl.fn = nil
	sl.dead = false
	sl.gen++ // invalidate outstanding tickets for this event
	s.free = append(s.free, si)
	return fn, dead
}

// Step executes the next pending event and returns false when the queue is
// empty. Cancelled events are skipped without counting as processed.
func (s *Sim) Step() bool {
	for s.pending > 0 {
		at, fn, dead := s.take(s.peek())
		if dead {
			continue
		}
		s.now = at
		s.processed++
		if s.evCounter != nil {
			s.evCounter.Inc()
			s.depthGauge.SetMax(float64(s.pending))
		}
		fn()
		return true
	}
	return false
}

// Run drains the event queue. maxEvents bounds runaway simulations; pass 0
// for no limit. It returns the number of events executed by this call.
func (s *Sim) Run(maxEvents uint64) uint64 {
	var n uint64
	for s.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// ctxCheckEvery is how many events RunContext executes between cancellation
// checks. Simulations run millions of cheap events, so consulting the
// context's done channel on every one would dominate the loop; a stride this
// size bounds the post-cancel overrun to well under a millisecond of wall
// time while keeping the steady-state cost unmeasurable.
const ctxCheckEvery = 1024

// RunContext drains the event queue like Run but aborts once ctx is
// cancelled, checking every ctxCheckEvery events. It returns the number of
// events executed and ctx.Err() when the drain was cut short (nil when the
// queue emptied or maxEvents was reached). The simulator is left in a
// consistent state: pending events stay queued and a later Run/RunContext
// call resumes where this one stopped.
func (s *Sim) RunContext(ctx context.Context, maxEvents uint64) (uint64, error) {
	done := ctx.Done()
	var n uint64
	for s.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			return n, nil
		}
		if done != nil && n%ctxCheckEvery == 0 {
			select {
			case <-done:
				return n, ctx.Err()
			default:
			}
		}
	}
	return n, nil
}

// RunUntil executes events with timestamps <= deadline, leaving later events
// queued and advancing the clock to at most the deadline. Cancelled events
// encountered on the way are dropped and their slots recycled exactly as
// Step does, without touching the processed count or instrumentation.
func (s *Sim) RunUntil(deadline float64) uint64 {
	var n uint64
	for s.pending > 0 {
		b, i := s.peek()
		e := s.buckets[b][i]
		if math.Float64frombits(e.key) > deadline {
			if !s.slots[e.slot].dead {
				break
			}
			if b > 0 {
				// Popping would move base past the clock: drop it in place.
				s.buckets[b] = slices.Delete(s.buckets[b], i, i+1)
				if len(s.buckets[b]) == 0 {
					s.mask &^= 1 << b
				}
				s.pending--
				s.release(e.slot)
				continue
			}
		}
		at, fn, dead := s.take(b, i)
		if dead {
			continue
		}
		s.now = at
		s.processed++
		if s.evCounter != nil {
			s.evCounter.Inc()
			s.depthGauge.SetMax(float64(s.pending))
		}
		fn()
		n++
	}
	if s.now < deadline {
		s.now = deadline
	}
	return n
}
