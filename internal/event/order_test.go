package event

import (
	"math"
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

// spanDelay draws a delay log-uniformly from 1e-3 to 1e6 cycles, so that
// keys differ in their exponent as well as in their mantissa.
func spanDelay(r *rand.Rand) float64 { return 1e-3 * math.Pow(1e9, r.Float64()) }

// orderPlan is what event id does when it fires: the delays of the events
// it schedules and the id it cancels (-1 for none). It is a pure function
// of (seed, id), so the kernel and the reference replay the same program.
// Most delays come from a small set that includes 0, so many events share
// a timestamp and the scheduling-order tie-break decides their order; one
// in five spans exponents.
func orderPlan(seed int64, id int) (delays []float64, cancel int) {
	r := rand.New(rand.NewSource(seed<<20 | int64(id)))
	for n := r.Intn(3); n > 0; n-- {
		if r.Intn(5) == 0 {
			delays = append(delays, spanDelay(r))
		} else {
			delays = append(delays, []float64{0, 1, 1, 2.5, 4}[r.Intn(5)])
		}
	}
	cancel = -1
	if r.Intn(4) == 0 {
		cancel = r.Intn(orderMaxEvents)
	}
	return delays, cancel
}

// orderDriver is the scheduling surface both queues expose to the script.
// at schedules a fresh event and returns its id, or -1 once the driver's
// event budget is spent.
type orderDriver interface {
	now() float64
	pending() int
	at(t float64) int
	cancel(id int)
	step() bool
	runUntil(deadline float64)
	run()
}

// orderScript drives q through a seeded schedule that mixes scheduling from
// outside and inside handlers, −0 and exponent-spanning timestamps,
// cancels, Step, RunUntil and Run. Its last phase cancels events that lie
// just past a RunUntil deadline and then schedules events between the
// deadline and them, which a queue that moves its base past the clock on a
// peek or a dead-event drop gets wrong.
func orderScript(seed int64, q orderDriver) {
	r := rand.New(rand.NewSource(seed))
	hi := 0 // one past the highest id the script has scheduled
	at := func(t float64) int {
		id := q.at(t)
		hi = max(hi, id+1)
		return id
	}
	batch := func(n, spread int) {
		for i := 0; i < n; i++ {
			at(q.now() + float64(r.Intn(spread)))
		}
	}
	at(math.Copysign(0, -1))
	batch(200, 50)
	q.runUntil(20)
	batch(50, 10)
	for i := 0; i < 50; i++ {
		at(q.now() + spanDelay(r))
	}
	for i := 0; i < 5; i++ {
		q.cancel(r.Intn(hi))
	}
	for i := 0; i < 100; i++ {
		q.step()
	}
	q.runUntil(q.now() + 7.5)
	for i := 0; i < 5; i++ {
		t := q.now()
		for j := 1; j <= 3; j++ {
			q.cancel(at(t + 1e-4*float64(j)))
		}
		at(t + 4e-4)
		q.runUntil(t + 5e-5)
		at(t + 6e-5)
		at(t + 8e-5)
		q.step()
	}
	q.run()
}

// kernelDriver runs the script on a Sim.
type kernelDriver struct {
	s       *Sim
	seed    int64
	budget  int
	next    int
	tickets map[int]Ticket
	trace   []fired
}

func newKernelDriver(seed int64, budget int) *kernelDriver {
	return &kernelDriver{s: NewSim(), seed: seed, budget: budget, tickets: map[int]Ticket{}}
}

func (d *kernelDriver) handler(id int) Handler {
	return func() {
		d.trace = append(d.trace, fired{id, d.s.Now()})
		delays, c := orderPlan(d.seed, id)
		for _, dl := range delays {
			if d.next < d.budget {
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
func (d *kernelDriver) pending() int { return d.s.Pending() }
func (d *kernelDriver) at(t float64) int {
	if d.next >= d.budget {
		return -1
	}
	id := d.next
	tk, err := d.s.At(t, d.handler(id))
	if err != nil {
		panic(err)
	}
	d.tickets[id] = tk
	d.next++
	return id
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
// stable-sorted by timestamp before every pop, which is (at, scheduling
// order) by construction.
type refDriver struct {
	clock  float64
	seed   int64
	budget int
	next   int
	queue  []refEvent
	trace  []fired
}

func (d *refDriver) fire(id int) {
	d.trace = append(d.trace, fired{id, d.clock})
	delays, c := orderPlan(d.seed, id)
	for _, dl := range delays {
		if d.next < d.budget {
			d.queue = append(d.queue, refEvent{at: d.clock + dl, id: d.next})
			d.next++
		}
	}
	if c >= 0 {
		d.cancel(c)
	}
}

// head stable-sorts the pending events and returns the first one.
func (d *refDriver) head() *refEvent {
	sort.SliceStable(d.queue, func(i, j int) bool { return d.queue[i].at < d.queue[j].at })
	return &d.queue[0]
}

func (d *refDriver) now() float64 { return d.clock }
func (d *refDriver) pending() int { return len(d.queue) }
func (d *refDriver) at(t float64) int {
	if d.next >= d.budget {
		return -1
	}
	d.queue = append(d.queue, refEvent{at: t, id: d.next})
	d.next++
	return d.next - 1
}
func (d *refDriver) cancel(id int) {
	for i := range d.queue {
		if d.queue[i].id == id {
			d.queue[i].dead = true
		}
	}
}
func (d *refDriver) step() bool {
	for len(d.queue) > 0 {
		e := *d.head()
		d.queue = d.queue[1:]
		if e.dead {
			continue
		}
		d.clock = e.at
		d.fire(e.id)
		return true
	}
	return false
}

// runUntil drops dead head events wherever they lie and fires live ones up
// to the deadline. (Calling step on a dead head would skip it and then fire
// the next live event even past the deadline.)
func (d *refDriver) runUntil(deadline float64) {
	for len(d.queue) > 0 {
		if e := d.head(); e.dead {
			d.queue = d.queue[1:]
		} else if e.at > deadline {
			break
		} else {
			d.step()
		}
	}
	d.clock = max(d.clock, deadline)
}
func (d *refDriver) run() {
	for d.step() {
	}
}

// firstDiff returns the first position at which the two traces differ.
func firstDiff(a, b []fired) int {
	n := 0
	for n < min(len(a), len(b)) && a[n] == b[n] {
		n++
	}
	return n
}

// TestPopOrderMatchesStableSortReference: on random schedules with equal,
// −0 and exponent-spanning timestamps, cancels (also past a RunUntil
// deadline), handlers that schedule, Step, RunUntil and Run, the
// kernel executes events in exactly the order, and at exactly the times, of
// a stable-sorted reference queue.
func TestPopOrderMatchesStableSortReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		k := newKernelDriver(seed, orderMaxEvents)
		ref := &refDriver{seed: seed, budget: orderMaxEvents}
		orderScript(seed, k)
		orderScript(seed, ref)
		if !slices.Equal(k.trace, ref.trace) {
			t.Fatalf("seed %d: kernel ran %d events, reference %d; first difference at position %d",
				seed, len(k.trace), len(ref.trace), firstDiff(k.trace, ref.trace))
		}
		if len(k.trace) < 500 {
			t.Fatalf("seed %d: only %d events ran; the schedule is too small to test anything", seed, len(k.trace))
		}
		if k.s.Now() != ref.clock || k.s.Pending() != 0 {
			t.Errorf("seed %d: kernel clock %v pending %d, reference clock %v", seed, k.s.Now(), k.s.Pending(), ref.clock)
		}
	}
}

// fuzzDelays are the offsets from the clock that a fuzz program schedules
// at and runs until: ties, sub-cycle steps and exponent-spanning jumps.
var fuzzDelays = []float64{0, 0, 1e-3, 0.5, 1, 1, 2.5, 7, 1e3, 1e6}

// programOp applies one decoded operation to q; hi is one past the highest
// id scheduled so far, and the new value is returned.
func programOp(q orderDriver, op, arg byte, hi int) int {
	d := fuzzDelays[int(arg)%len(fuzzDelays)]
	switch op % 5 {
	case 0:
		t := q.now() + d
		if t == 0 && arg&0x80 != 0 {
			t = math.Copysign(0, -1)
		}
		hi = max(hi, q.at(t)+1)
	case 1:
		q.cancel(int(arg) * hi / 256)
	case 2:
		q.step()
	case 3:
		if arg&0x80 != 0 {
			d = -d
		}
		q.runUntil(q.now() + d)
	case 4:
		q.run()
	}
	return hi
}

// FuzzEventOrder decodes bytes into a program of At, Cancel, Step, RunUntil
// and Run operations (two bytes each: operation and argument) and runs it on
// the kernel and on the reference queue in lockstep. After every operation
// the clocks and pending counts must agree, and the fired events must match
// in order and time.
func FuzzEventOrder(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0x80, 0, 4, 3, 2, 2, 0, 4, 0})
	f.Add(int64(7), []byte{0, 9, 0, 2, 1, 200, 0, 8, 1, 255, 3, 3, 0, 3, 2, 0})
	f.Add(int64(17), []byte{0, 2, 0, 8, 1, 128, 3, 1, 0, 3, 0, 3, 2, 0, 0, 1, 3, 0x89, 4, 0})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		const budget = 200
		k := newKernelDriver(seed, budget)
		ref := &refDriver{seed: seed, budget: budget}
		hi := 0
		for i := 0; i+1 < len(prog) && i < 256; i += 2 {
			programOp(ref, prog[i], prog[i+1], hi)
			hi = programOp(k, prog[i], prog[i+1], hi)
			if k.now() != ref.now() || k.pending() != ref.pending() {
				t.Fatalf("op %d: kernel clock %v pending %d, reference clock %v pending %d",
					i/2, k.now(), k.pending(), ref.now(), ref.pending())
			}
		}
		k.run()
		ref.run()
		if !slices.Equal(k.trace, ref.trace) {
			t.Fatalf("kernel ran %d events, reference %d; first difference at position %d",
				len(k.trace), len(ref.trace), firstDiff(k.trace, ref.trace))
		}
	})
}
