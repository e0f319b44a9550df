package fabric

import "ena/internal/event"

// ReplayResult summarizes a brute-force collective replay.
type ReplayResult struct {
	// Ns is the simulated completion time of the whole collective.
	Ns float64
	// Messages and Hops count the individual transfers executed.
	Messages int
	Hops     int
}

// flight is one in-flight message walking its route hop by hop on the
// event kernel. Links are store-and-forward FIFO queues: a hop starts at
// max(arrival, link free time), holds the link for the serialization time,
// and delivers one hop latency after that.
type flight struct {
	c     *Comm
	s     *event.Sim
	free  []float64 // per-link time the link next goes idle
	links []int
	hop   int
	bytes float64
	res   *ReplayResult
	fin   *float64 // running max completion time of the round
}

func (f *flight) step() {
	sp := f.c.t.Spec()
	l := f.links[f.hop]
	start := f.s.Now()
	if f.free[l] > start {
		start = f.free[l]
	}
	ser := sp.serNs(f.bytes, f.c.t.LinkBW(l))
	f.free[l] = start + ser
	arrive := start + ser + sp.latNs()
	f.res.Hops++
	f.hop++
	if f.hop == len(f.links) {
		if arrive > *f.fin {
			*f.fin = arrive
		}
		return
	}
	f.s.After(arrive-f.s.Now(), f.step)
}

// Replay executes op message by message on the discrete-event kernel and
// returns the measured cost: the ground truth the analytic model is pinned
// against. Rounds are barrier-synchronized — each starts when the previous
// one's slowest message has arrived — and repeated ring rounds are replayed
// individually. Cost is O(total hops) events, so keep node counts small (the property
// tests stop at 64); the analytic model is the large-scale path.
func (c *Comm) Replay(op Op, bytes float64) (ReplayResult, error) {
	var res ReplayResult
	if c.Size() < 2 {
		return res, nil
	}
	s := event.AcquireSim()
	defer event.ReleaseSim(s)
	free := make([]float64, c.t.Links())
	flights := make([]flight, 0, c.Size())
	var routes []int
	for _, r := range c.rounds(op) {
		// Resolve routes once per round into one shared buffer; repetitions
		// reuse them. A flight's links stay valid for the round even when a
		// later append regrows the buffer: appends never write to an
		// outgrown backing array.
		flights = flights[:0]
		routes = routes[:0]
		for _, m := range r.msgs {
			start := len(routes)
			var err error
			if routes, err = c.appendRoute(routes, m.src, m.dst); err != nil {
				return res, err
			}
			if len(routes) == start {
				continue
			}
			flights = append(flights, flight{
				c: c, s: s, free: free, links: routes[start:len(routes):len(routes)],
				bytes: r.msgBytes(bytes), res: &res,
			})
		}
		for rep := 0; rep < r.repeat; rep++ {
			s.Reset()
			for i := range free {
				free[i] = 0
			}
			var fin float64
			for i := range flights {
				f := &flights[i]
				f.hop = 0
				f.fin = &fin
				s.After(0, f.step)
			}
			s.Run(0)
			res.Messages += len(flights)
			res.Ns += fin
		}
	}
	return res, nil
}
