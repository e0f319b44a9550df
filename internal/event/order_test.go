package event

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fired is one executed event: its id and the clock when it ran.
type fired struct {
	id int
	at float64
}

// orderMaxEvents caps how many events one random program schedules.
const orderMaxEvents = 1500

// orderPlan is what event id does when it fires: the delays of the events
// it schedules and the id it cancels (-1 for none). It is a pure function
// of (seed, id), so the kernel and the reference replay the same program.
// Delays come from a small set that includes 0, so many events share a
// timestamp and the seq tie-break decides their order.
func orderPlan(seed int64, id int) (delays []float64, cancel int) {
	r := rand.New(rand.NewSource(seed<<20 | int64(id)))
	for n := r.Intn(3); n > 0; n-- {
		delays = append(delays, []float64{0, 1, 1, 2.5, 4}[r.Intn(5)])
	}
	cancel = -1
	if r.Intn(4) == 0 {
		cancel = r.Intn(orderMaxEvents)
	}
	return delays, cancel
}

// orderDriver is the scheduling surface both queues expose to the script.
type orderDriver interface {
	now() float64
	at(t float64, id int)
	cancel(id int)
	step() bool
	runUntil(deadline float64)
	run()
}

// orderScript drives q through a seeded schedule that mixes scheduling from
// outside and inside handlers, cancels, Step, RunUntil and Run.
func orderScript(seed int64, q orderDriver) {
	r := rand.New(rand.NewSource(seed))
	next := 0
	batch := func(n, spread int) {
		for i := 0; i < n && next < orderMaxEvents; i++ {
			q.at(q.now()+float64(r.Intn(spread)), next)
			next++
		}
	}
	batch(200, 50)
	q.runUntil(20)
	batch(50, 10)
	for i := 0; i < 5; i++ {
		q.cancel(r.Intn(next))
	}
	for i := 0; i < 100; i++ {
		q.step()
	}
	q.runUntil(q.now() + 7.5)
	q.run()
}

// kernelDriver runs the script on a Sim.
type kernelDriver struct {
	s       *Sim
	seed    int64
	next    int
	tickets map[int]Ticket
	trace   []fired
}

func (d *kernelDriver) handler(id int) Handler {
	return func() {
		d.trace = append(d.trace, fired{id, d.s.Now()})
		delays, c := orderPlan(d.seed, id)
		for _, dl := range delays {
			if d.next < orderMaxEvents {
				d.tickets[d.next] = d.s.After(dl, d.handler(d.next))
				d.next++
			}
		}
		if c >= 0 {
			d.cancel(c)
		}
	}
}

func (d *kernelDriver) now() float64 { return d.s.Now() }
func (d *kernelDriver) at(t float64, id int) {
	tk, err := d.s.At(t, d.handler(id))
	if err != nil {
		panic(err)
	}
	d.tickets[id] = tk
	d.next = max(d.next, id+1)
}
func (d *kernelDriver) cancel(id int)             { d.tickets[id].Cancel() }
func (d *kernelDriver) step() bool                { return d.s.Step() }
func (d *kernelDriver) runUntil(deadline float64) { d.s.RunUntil(deadline) }
func (d *kernelDriver) run()                      { d.s.Run(0) }

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at   float64
	id   int
	dead bool
}

// refDriver is the reference queue: a slice kept in scheduling order and
// stable-sorted by timestamp before every pop, which is (at, seq) order by
// construction.
type refDriver struct {
	clock   float64
	seed    int64
	next    int
	pending []refEvent
	trace   []fired
}

func (d *refDriver) fire(id int) {
	d.trace = append(d.trace, fired{id, d.clock})
	delays, c := orderPlan(d.seed, id)
	for _, dl := range delays {
		if d.next < orderMaxEvents {
			d.pending = append(d.pending, refEvent{at: d.clock + dl, id: d.next})
			d.next++
		}
	}
	if c >= 0 {
		d.cancel(c)
	}
}

// head stable-sorts the pending events and returns the first one.
func (d *refDriver) head() *refEvent {
	sort.SliceStable(d.pending, func(i, j int) bool { return d.pending[i].at < d.pending[j].at })
	return &d.pending[0]
}

func (d *refDriver) now() float64 { return d.clock }
func (d *refDriver) at(t float64, id int) {
	d.pending = append(d.pending, refEvent{at: t, id: id})
	d.next = max(d.next, id+1)
}
func (d *refDriver) cancel(id int) {
	for i := range d.pending {
		if d.pending[i].id == id {
			d.pending[i].dead = true
		}
	}
}
func (d *refDriver) step() bool {
	for len(d.pending) > 0 {
		e := *d.head()
		d.pending = d.pending[1:]
		if e.dead {
			continue
		}
		d.clock = e.at
		d.fire(e.id)
		return true
	}
	return false
}
func (d *refDriver) runUntil(deadline float64) {
	for len(d.pending) > 0 {
		if e := d.head(); e.at > deadline && !e.dead {
			break
		}
		d.step()
	}
	d.clock = max(d.clock, deadline)
}
func (d *refDriver) run() {
	for d.step() {
	}
}

// TestPopOrderMatchesStableSortReference: on random schedules with equal
// timestamps, cancels, handlers that schedule, Step, RunUntil and Run, the
// kernel executes events in exactly the order, and at exactly the times, of
// a stable-sorted reference queue.
func TestPopOrderMatchesStableSortReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		k := &kernelDriver{s: NewSim(), seed: seed, tickets: map[int]Ticket{}}
		ref := &refDriver{seed: seed}
		orderScript(seed, k)
		orderScript(seed, ref)
		if !slices.Equal(k.trace, ref.trace) {
			n := 0
			for n < min(len(k.trace), len(ref.trace)) && k.trace[n] == ref.trace[n] {
				n++
			}
			t.Fatalf("seed %d: kernel ran %d events, reference %d; first difference at position %d",
				seed, len(k.trace), len(ref.trace), n)
		}
		if len(k.trace) < 500 {
			t.Fatalf("seed %d: only %d events ran; the schedule is too small to test anything", seed, len(k.trace))
		}
		if k.s.Now() != ref.clock || k.s.Pending() != 0 {
			t.Errorf("seed %d: kernel clock %v pending %d, reference clock %v", seed, k.s.Now(), k.s.Pending(), ref.clock)
		}
	}
}
