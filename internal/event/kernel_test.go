package event

import "testing"

// TestReset pins the reuse contract: a reset simulator behaves like a fresh
// one (clock, counters, queue all zeroed) and outstanding tickets from
// before the reset are inert.
func TestReset(t *testing.T) {
	s := NewSim()
	s.After(1, func() {})
	stale := s.After(2, func() {})
	s.Run(0)
	s.After(3, func() {})
	s.Reset()
	if s.Now() != 0 || s.Processed() != 0 || s.Pending() != 0 {
		t.Fatalf("reset state: now=%v processed=%d pending=%d", s.Now(), s.Processed(), s.Pending())
	}
	ran := false
	s.After(1, func() { ran = true })
	stale.Cancel() // must not cancel the event occupying the recycled slot
	if n := s.Run(0); n != 1 || !ran {
		t.Errorf("post-reset run executed %d events, ran=%v", n, ran)
	}
}

// TestStaleTicketCancel: once an event has fired, its ticket must not be
// able to cancel a later event that recycled the same slot.
func TestStaleTicketCancel(t *testing.T) {
	s := NewSim()
	tk := s.After(1, func() {})
	s.Run(0)
	ran := false
	s.After(1, func() { ran = true }) // recycles the freed slot
	tk.Cancel()
	s.Run(0)
	if !ran {
		t.Error("stale ticket cancelled a recycled slot's event")
	}
}

// TestCancelledEventRecyclesSlot: a cancelled event's slot returns to the
// free list when dequeued, so cancel churn does not grow the slot table.
func TestCancelledEventRecyclesSlot(t *testing.T) {
	s := NewSim()
	for i := 0; i < 100; i++ {
		tk := s.After(1, func() { t.Error("cancelled event ran") })
		tk.Cancel()
		s.Run(0)
	}
	if got := len(s.slots); got > 2 {
		t.Errorf("slot table grew to %d under cancel churn", got)
	}
}

// TestSteadyStateSchedulingIsAllocFree is the kernel's headline property:
// once the heap and slot table reach their high-water mark, a pop-then-push
// cycle (the NoC steady state) performs no allocations.
func TestSteadyStateSchedulingIsAllocFree(t *testing.T) {
	s := NewSim()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(float64(i), fn)
	}
	// Warm the arrays past their high-water mark.
	for i := 0; i < 128; i++ {
		s.Step()
		s.After(64, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Step()
		s.After(64, fn)
	})
	if allocs != 0 {
		t.Errorf("steady-state pop+push allocates %.1f times per op", allocs)
	}
}

// TestAcquireReleaseSim: the pool hands back reset simulators.
func TestAcquireReleaseSim(t *testing.T) {
	s := AcquireSim()
	s.After(5, func() {})
	s.Run(0)
	ReleaseSim(s)
	s2 := AcquireSim()
	defer ReleaseSim(s2)
	if s2.Now() != 0 || s2.Pending() != 0 || s2.Processed() != 0 {
		t.Errorf("pooled sim not reset: now=%v pending=%d processed=%d",
			s2.Now(), s2.Pending(), s2.Processed())
	}
}

// TestRunUntilDropsTrailingCancelled: cancelled events at the queue head —
// even past the deadline — are dropped and recycled without counting as
// processed, mirroring Step's accounting.
func TestRunUntilDropsTrailingCancelled(t *testing.T) {
	s := NewSim()
	s.After(1, func() {})
	tk := s.After(10, func() { t.Error("cancelled event ran") })
	tk.Cancel()
	if n := s.RunUntil(5); n != 1 {
		t.Errorf("RunUntil executed %d events", n)
	}
	if s.Processed() != 1 {
		t.Errorf("processed = %d, want 1", s.Processed())
	}
	if s.Pending() != 0 {
		t.Errorf("cancelled event past deadline not dropped: pending=%d", s.Pending())
	}
	if s.Now() != 5 {
		t.Errorf("clock = %v, want 5", s.Now())
	}
}

// TestHeapOrderLargeFanIn stresses redistribution with a wide, deep queue.
func TestHeapOrderLargeFanIn(t *testing.T) {
	s := NewSim()
	const n = 10_000
	last := -1.0
	for i := 0; i < n; i++ {
		at := float64((i * 7919) % 1000)
		s.At(at, func() {
			if s.Now() < last {
				t.Fatalf("clock went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
		})
	}
	if got := s.Run(0); got != n {
		t.Errorf("executed %d of %d", got, n)
	}
}
