package fabric

// Analytic collective cost model. Every formula here is pinned against the
// brute-force event-driven replay (replay.go) by the property tests in
// cost_test.go, on every topology that the formula claims exactness for:
//
//   - Ring all-reduce: 2(p-1) times the worst uncontended path. The torus
//     snake ring's wrap message shares row links with the one-hop messages
//     (link loads of 2), but it arrives behind them conveyor-style — by the
//     time it reaches a shared link the link has just gone free — so the
//     replay shows zero queueing and the max-path form is exact. Indirect
//     topologies give every ring round loads of 1.
//
//   - Tree all-reduce and halo exchange: per-round merge formula
//
//       cost = max-path + max over links of (load-1)*serialization
//
//     which is exact whenever the contending messages reach their shared
//     link simultaneously. That holds for every tree round (binomial pairs
//     are spaced so at most one crossing message lands per fat-tree leaf or
//     dragonfly group per round; torus trees reduce dimension-by-dimension
//     over disjoint segments) and for halo on the torus (all loads 1). For
//     halo on the indirect topologies simultaneity is measured rather than
//     proven — the property test pins the gap at float roundoff across the
//     whole topology/spec/payload matrix.
//
//   - All-to-all, healthy topologies: closed forms, O(p) or O(1) per round
//     (derivations at each function). Degraded all-to-all falls back to the
//     O(p^2) per-round merge-formula enumeration.
//
// The point of the split: the replay is ground truth but O(messages*hops)
// events; the analytic forms cost microseconds at p = 100,000 and are what
// the scaling curves (scaling.go) and the service's /v1/scale route use.

// analyticRound prices one round for several payloads at once, writing the
// round's cost for payloads[i] into ns[i]. loads is a scratch slice of
// length t.Links(), zeroed on entry and re-zeroed before returning. Every
// path is appended straight into the reused scratch buffer, which comes
// back (as used) holding the round's links, so a round allocates nothing
// once the buffer has grown. Each message is routed once whatever the
// payload count. maxPathOnly drops the contention term (the ring's conveyor
// case).
func (c *Comm) analyticRound(r round, payloads, ns []float64, loads []int32, scratch []int, maxPathOnly bool) ([]int, error) {
	sp := c.t.Spec()
	clear(ns)
	used := scratch[:0]
	for _, m := range r.msgs {
		start := len(used)
		var err error
		if used, err = c.appendRoute(used, m.src, m.dst); err != nil {
			return used[:start], err
		}
		path := used[start:]
		for _, l := range path {
			loads[l]++
		}
		for i, payload := range payloads {
			// The uncontended store-and-forward path cost, summed in hop
			// order: each hop serializes the message and then pays the hop
			// latency.
			bytes := r.msgBytes(payload)
			var cost float64
			for _, l := range path {
				cost += sp.serNs(bytes, c.t.LinkBW(l)) + sp.latNs()
			}
			if cost > ns[i] {
				ns[i] = cost
			}
		}
	}
	if !maxPathOnly {
		for i, payload := range payloads {
			bytes := r.msgBytes(payload)
			var extra float64
			for _, l := range used {
				if loads[l] > 1 {
					if e := float64(loads[l]-1) * sp.serNs(bytes, c.t.LinkBW(l)); e > extra {
						extra = e
					}
				}
			}
			ns[i] += extra
		}
	}
	for _, l := range used {
		loads[l] = 0
	}
	return used, nil
}

// AnalyticNs prices op for the given payload (see rounds for the payload
// convention per op) without simulating individual messages. Healthy
// all-to-alls dispatch to per-topology closed forms; everything else sums
// per-round merge-formula costs over the same round schedule the replay
// executes (see roundsNs). Degraded communicators may return
// ErrPartitioned.
func (c *Comm) AnalyticNs(op Op, bytes float64) (float64, error) {
	if c.Size() < 2 {
		return 0, nil
	}
	if op == AllToAll && c.dead == nil {
		switch t := c.t.(type) {
		case *Torus:
			return torusAllToAllNs(t, bytes), nil
		case *FatTree:
			return fatTreeAllToAllNs(t, bytes), nil
		case *Dragonfly:
			return dragonflyAllToAllNs(t, bytes), nil
		}
	}
	ns, err := c.roundsNs(op, []float64{bytes})
	if err != nil {
		return 0, err
	}
	return ns[0], nil
}

// roundsNs sums op's per-round merge-formula costs for several payloads in
// one pass over the round schedule: out[i] is the cost for payloads[i],
// bit-identical to pricing that payload alone (each path is still summed in
// hop order, and the max and contention terms are kept per payload).
// Allocation is O(rounds), never O(messages).
func (c *Comm) roundsNs(op Op, payloads []float64) ([]float64, error) {
	out := make([]float64, len(payloads))
	if len(payloads) == 0 || c.Size() < 2 {
		return out, nil
	}
	loads := make([]int32, c.t.Links())
	scratch := make([]int, 0, c.Size())
	ns := make([]float64, len(payloads))
	for _, r := range c.rounds(op) {
		used, err := c.analyticRound(r, payloads, ns, loads, scratch, op == AllReduceRing)
		scratch = used
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] += ns[i] * float64(r.repeat)
		}
	}
	return out, nil
}

// torusAllToAllNs: in shift round (dx,dy,dz) every message travels the same
// sx+sy+sz hops (sd = shortest way around each ring). Dimension-ordered
// routing makes each round a set of conveyors: along any directed ring the
// messages advance in lockstep, so a message reaching a link always finds
// it just freed by the message ahead — zero queueing, and the round costs
// exactly (sx+sy+sz)*(ser+lat). Summing hop counts over all offsets
// factorizes per dimension:
//
//	T = (ser+lat) * (S(X)*Y*Z + X*S(Y)*Z + X*Y*S(Z)),  S(D) = sum_d min(d, D-d)
func torusAllToAllNs(t *Torus, bytes float64) float64 {
	sp := t.spec
	hop := sp.serNs(bytes, sp.BandwidthGBps) + sp.latNs()
	sd := func(d int) int {
		s := 0
		for i := 0; i < d; i++ {
			s += min(i, d-i)
		}
		return s
	}
	return hop * float64(sd(t.X)*t.Y*t.Z+t.X*sd(t.Y)*t.Z+t.X*t.Y*sd(t.Z))
}

// fatTreeAllToAllNs: in shift round r each leaf sends cross(r) = min(r,
// p-r, L) messages across the spine (the shifted window of L destinations
// overlaps the own leaf except for that many). All cross(r) arrive at their
// leaf's uplink together (each rode a private node link), serialize FIFO in
// stagger steps of the uplink serialization time, and land on destination
// downlinks in disjoint consecutive slots (a downlink receives from at most
// two source uplinks, and slot ranges cannot collide), so nothing queues
// after the uplink. The last message finishes at
//
//	4*lat + 2*ser_node + (cross(r)+1)*ser_uplink
//
// which dominates the in-leaf messages' 2*lat + 2*ser_node. A single-leaf
// tree has only in-leaf rounds.
func fatTreeAllToAllNs(t *FatTree, bytes float64) float64 {
	sp := t.spec
	a := sp.latNs()
	ser := sp.serNs(bytes, sp.BandwidthGBps)
	if t.leaves() == 1 {
		return float64(t.P-1) * (2*a + 2*ser)
	}
	serUp := sp.serNs(bytes, t.uplinkBW())
	var total float64
	for r := 1; r < t.P; r++ {
		cross := min(r, t.P-r, t.LeafSize)
		total += 4*a + 2*ser + float64(cross+1)*serUp
	}
	return total
}

// dragonflyAllToAllNs: write shift r = q*G + s (G the group size). Each
// group's L-node window splits G-s messages toward group g+q and s toward
// g+q+1, each ordered group pair owning a private global link, so the worst
// global-link load M(r) is:
//
//	q == 0:                   M = s      (the G-s others stay in-group)
//	q == groups-1 and s >= 1: M = G-s    (the s tail messages wrap home)
//	otherwise:                M = max(G-s, s), with s only if s >= 1
//
// All M messages arrive at the global link together (private node uplinks)
// and each destination node receives exactly one message per round, so the
// only queue is the global FIFO:
//
//	T(r) = max(3*lat + (2+M)*ser, in-group 2*lat + 2*ser if present)
func dragonflyAllToAllNs(t *Dragonfly, bytes float64) float64 {
	sp := t.spec
	a := sp.latNs()
	ser := sp.serNs(bytes, sp.BandwidthGBps)
	G, groups := t.GroupSize, t.groups()
	if groups == 1 {
		return float64(t.P-1) * (2*a + 2*ser)
	}
	var total float64
	for r := 1; r < t.P; r++ {
		q, s := r/G, r%G
		var m int
		intra := false
		switch {
		case q == 0:
			m, intra = s, true
		case q == groups-1 && s >= 1:
			m, intra = G-s, true
		default:
			m = G - s
			if s >= 1 && s > m {
				m = s
			}
		}
		cost := 3*a + float64(2+m)*ser
		if intra && 2*a+2*ser > cost {
			cost = 2*a + 2*ser
		}
		total += cost
	}
	return total
}
