package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ena/internal/dse"
	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/obs"
	"ena/internal/powopt"
	"ena/internal/workload"
)

// DefaultShardsPerPeer is how many shards each peer gets per job: more than
// one so a failed peer forfeits only a slice of the work and the survivors
// rebalance at shard granularity.
const DefaultShardsPerPeer = 3

// pullersPerPeer is how many shards each active peer has in flight at once:
// two keep a peer busy while its next shard request crosses the wire. Pulling
// is the only load balancer — a faster or less loaded peer frees its pullers
// sooner and so takes more shards.
const pullersPerPeer = 2

// Checkpoint chunk defaults: explore points are cheap (fixed-size chunks keep
// shard boundaries independent of the peer set, so a checkpoint written by
// one replica resumes on any other); scale sizes are whole-fabric evaluations
// and chunk small.
const (
	DefaultCheckpointItems = 64
	defaultScaleChunk      = 2
)

// CkptStore is the slice of the result store the coordinator needs for shard
// checkpoints. *store.Store satisfies it; both methods must be safe for
// concurrent use.
type CkptStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte) error
}

// Coordinator fans sweep jobs out to enaserve worker peers. A nil
// Coordinator (or one with neither peers nor a checkpoint store) is
// disabled: callers fall back to local evaluation. Safe for concurrent use
// by multiple jobs.
type Coordinator struct {
	peers     []string
	client    *http.Client
	shardsPer int
	idle      time.Duration // shardIdleTimeout; tests shorten it

	ckpt       CkptStore
	ckptChunk  int
	scaleChunk int
	evalDelay  time.Duration

	dispatched  *obs.Counter
	retries     *obs.Counter
	peerFails   *obs.Counter
	itemsCtr    *obs.Counter
	localShards *obs.Counter
	resumedCtr  *obs.Counter
	ckptCtr     *obs.Counter
	peersGauge  *obs.Gauge

	// down holds the peers whose last shard failed (see recordOutcome).
	downMu       sync.Mutex
	down         map[string]peerBackoff
	healthyGauge *obs.Gauge
	now          func() time.Time // time.Now; tests move it instead of sleeping
}

// shardIdleTimeout bounds each silence of a shard exchange: until the
// response header, then between any two reads of the stream. Workers write a
// keepalive every shardKeepalive, so only a peer that stopped answering
// (SIGSTOP, a black-holed host) fails the shard this way, while the job is live.
const shardIdleTimeout = 5 * time.Second

const (
	minPeerBackoff = 2 * time.Second
	maxPeerBackoff = 30 * time.Second
)

type peerBackoff struct {
	wait  time.Duration
	until time.Time
}

// NewCoordinator builds a coordinator over the given peer base URLs
// (e.g. "http://10.0.0.2:8080"). Metrics land in reg under cluster.* plus
// the checkpoint counters under jobs.* (jobs.resumed_shards,
// jobs.checkpoints — they describe job durability, not fan-out).
func NewCoordinator(peers []string, reg *obs.Registry) *Coordinator {
	c := &Coordinator{
		peers: append([]string(nil), peers...),
		// No overall client timeout: shard streams legitimately run long.
		// runShard's idle deadline bounds each silence instead.
		client:      &http.Client{},
		shardsPer:   DefaultShardsPerPeer,
		idle:        shardIdleTimeout,
		ckptChunk:   DefaultCheckpointItems,
		scaleChunk:  defaultScaleChunk,
		dispatched:  reg.Counter("cluster.shards_dispatched"),
		retries:     reg.Counter("cluster.shard_retries"),
		peerFails:   reg.Counter("cluster.peer_failures"),
		itemsCtr:    reg.Counter("cluster.items_streamed"),
		localShards: reg.Counter("cluster.local_fallback_shards"),
		resumedCtr:  reg.Counter("jobs.resumed_shards"),
		ckptCtr:     reg.Counter("jobs.checkpoints"),
		peersGauge:  reg.Gauge("cluster.peers"),

		down:         make(map[string]peerBackoff),
		healthyGauge: reg.Gauge("cluster.peers_healthy"),
		now:          time.Now,
	}
	c.peersGauge.Set(float64(len(c.peers)))
	c.activePeers() // sets cluster.peers_healthy
	return c
}

// EnableCheckpoints persists completed shard partials to cs so an adopted or
// restarted job resumes from its checkpoint instead of recomputing. chunk
// fixes the explore shard size (<= 0 uses DefaultCheckpointItems; at most
// maxShardItems) and caps the scale one at defaultScaleChunk; fixed
// chunks keep shard boundaries identical across replicas with different
// peer sets, which is what makes another replica's checkpoints resumable.
func (c *Coordinator) EnableCheckpoints(cs CkptStore, chunk int) {
	if c == nil {
		return
	}
	c.ckpt = cs
	if chunk > 0 {
		c.ckptChunk = min(chunk, maxShardItems)
		c.scaleChunk = min(chunk, defaultScaleChunk)
	}
}

// SetEvalDelay installs a chaos knob: every item evaluated locally by this
// coordinator sleeps d first. It exists to stretch sweeps so kill-mid-sweep
// tests (and demos) have a window to hit; production leaves it zero.
func (c *Coordinator) SetEvalDelay(d time.Duration) {
	if c != nil {
		c.evalDelay = d
	}
}

// Active reports whether sweeps should run through the coordinator at all:
// it has peers to fan out to, or a checkpoint store that makes even a
// single-process sweep resumable.
func (c *Coordinator) Active() bool { return c != nil && (len(c.peers) > 0 || c.ckpt != nil) }

// activePeers is the shard-assignment set: the configured peers, in
// configuration order, that are not sitting out a backoff. Its size is the
// cluster.peers_healthy gauge, as of the last sweep or shard outcome.
func (c *Coordinator) activePeers() []string {
	c.downMu.Lock()
	defer c.downMu.Unlock()
	now := c.now()
	out := make([]string, 0, len(c.peers))
	for _, p := range c.peers {
		if b, ok := c.down[p]; !ok || !now.Before(b.until) {
			out = append(out, p)
		}
	}
	c.healthyGauge.Set(float64(len(out)))
	return out
}

// recordOutcome updates peer's backoff from a shard outcome. A completed
// shard clears it. A failure leaves the peer out of later sweeps for
// minPeerBackoff, doubling per consecutive failure up to maxPeerBackoff;
// the first sweep after the backoff is the retry.
func (c *Coordinator) recordOutcome(peer string, ok bool) {
	defer c.activePeers() // after the unlock below
	c.downMu.Lock()
	defer c.downMu.Unlock()
	if b, down := c.down[peer]; ok {
		delete(c.down, peer)
	} else {
		wait := minPeerBackoff
		if down {
			wait = min(2*b.wait, maxPeerBackoff)
		}
		c.down[peer] = peerBackoff{wait: wait, until: c.now().Add(wait)}
	}
}

// chaosSleep implements the eval-delay knob, respecting cancellation.
func chaosSleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Explore shards the design space across the peers and merges the evaluated
// points into the same Outcome a local dse sweep produces — bit-identical,
// including under per-shard failover (see sweep). A non-empty ckptKey (the
// job's canonical result key) checkpoints completed shards when a
// checkpoint store is installed, and resumes any shard a previous attempt —
// this replica's or a dead peer coordinator's — already persisted.
func (c *Coordinator) Explore(ctx context.Context, space dse.Space, kernels []workload.Kernel, names []string, budgetW float64, opts powopt.Technique, ckptKey string) (dse.Outcome, error) {
	evals, err := c.evaluate(ctx, space.Points(), kernels, names, budgetW, opts, ckptKey)
	if err != nil {
		return dse.Outcome{}, err
	}
	return dse.Finalize(evals, kernels, budgetW, opts), nil
}

// EvaluatePoints shards an explicit design-point list — a surrogate
// explorer's acquisition batch — across the peers and returns the Evals in
// list order, each computed by dse.EvaluatePointContext exactly as an
// Explore shard computes it (MeanScore zero; the explorer's Finalize assigns
// it). Batches are transient mid-acquisition state, so they are never
// checkpointed: a restarted surrogate job replays its seeded acquisition
// from the (cached) evaluations instead.
func (c *Coordinator) EvaluatePoints(ctx context.Context, pts []dse.Point, kernels []workload.Kernel, names []string, budgetW float64, opts powopt.Technique) ([]dse.Eval, error) {
	return c.evaluate(ctx, pts, kernels, names, budgetW, opts, "")
}

// evaluate is the explore sweep over an explicit point list.
func (c *Coordinator) evaluate(ctx context.Context, pts []dse.Point, kernels []workload.Kernel, names []string, budgetW float64, opts powopt.Technique, ckptKey string) ([]dse.Eval, error) {
	job := exploreJob{Kernels: names, BudgetW: budgetW, Opts: uint(opts)}
	return sweep(ctx, c, "explore", job, pts, c.ckptChunk, ckptKey,
		func(ctx context.Context, p dse.Point) (dse.Eval, error) {
			return dse.EvaluatePointContext(ctx, p, kernels, budgetW, opts)
		})
}

// Scale shards a machine-scale projection's node counts across the peers
// and returns the per-size evaluations in size order. ckptKey works as in
// Explore.
func (c *Coordinator) Scale(ctx context.Context, kind string, spec fabric.LinkSpec, k workload.Kernel, rate float64, sizes []int, mode fabric.Mode, mask faults.Mask, maskStr string, seed int64, ckptKey string) ([]ScaleEval, error) {
	job := scaleJob{
		Kernel: k.Name, Topology: kind, Mode: mode.String(),
		LinkGBps: spec.BandwidthGBps, LatencyNs: spec.LatencyNs, Ideal: spec.Ideal,
		Mask: maskStr, Seed: seed,
	}
	return sweep(ctx, c, "scale", job, sizes, c.scaleChunk, ckptKey,
		func(_ context.Context, size int) (ScaleEval, error) {
			return EvalScale(kind, spec, k, rate, size, mode, mask, seed)
		})
}

// maxShardItems caps a shard's item count so every shard request fits the
// worker's maxShardBody, however large the sweep.
const maxShardItems = 4096

// sweep is the one sweep driver. It splits items into shards and drives
// them to completion: pullers (pullersPerPeer per active peer) pull shards
// from a shared queue and stream their results; a shard whose stream fails
// is requeued for the surviving peers (the failed peer is retired for the
// rest of the job and marked down for later ones);
// shards left over when every peer has been retired are evaluated locally
// with eval — the coordinator is itself a capable replica, so total peer
// loss degrades to a single-process sweep instead of an error. Results
// merge positionally, so the output is in item order whoever computed it.
//
// With a checkpoint store and a non-empty ckptKey, shards are fixed chunks
// of chunk items (peer-independent boundaries), a shard whose results are
// already persisted under ckptKey is resumed without dispatch, and every
// completed shard is persisted before it is counted done.
func sweep[J, I, R any](ctx context.Context, c *Coordinator, kind string, job J, items []I, chunk int, ckptKey string, eval func(context.Context, I) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	filled := make([]atomic.Bool, len(items))
	put := func(i int, r R) {
		out[i] = r
		filled[i].Store(true)
	}
	ckpt := c.ckpt != nil && ckptKey != ""
	ckptName := func(sh shard) string {
		return fmt.Sprintf("ck:%d:%s:%s:%d-%d", protoVersion, kind, ckptKey, sh.start, sh.end)
	}
	save := func(sh shard) {
		if !ckpt {
			return
		}
		if b, err := json.Marshal(out[sh.start:sh.end]); err == nil && c.ckpt.Put(ckptName(sh), b) == nil {
			c.ckptCtr.Inc()
		}
	}
	resume := func(sh shard) bool {
		data, ok := c.ckpt.Get(ckptName(sh))
		if !ok {
			return false
		}
		var part []R
		if err := json.Unmarshal(data, &part); err != nil || len(part) != sh.end-sh.start {
			return false
		}
		for i := range part {
			put(sh.start+i, part[i])
		}
		return true
	}

	peers := c.activePeers()
	var shards []shard
	if ckpt {
		shards = chunked(len(items), chunk)
	} else {
		k := max(len(peers)*c.shardsPer, (len(items)+maxShardItems-1)/maxShardItems)
		shards = partition(len(items), k)
	}
	pending := make(chan shard, len(shards))
	for _, sh := range shards {
		if ckpt && resume(sh) {
			c.resumedCtr.Inc()
			continue
		}
		pending <- sh
	}
	var remaining atomic.Int64
	remaining.Store(int64(len(pending)))
	if remaining.Load() > 0 {
		done := make(chan struct{})
		var wg sync.WaitGroup
		for _, peer := range peers {
			var retired atomic.Bool // shared by this peer's pullers
			for range pullersPerPeer {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						case <-ctx.Done():
							return
						case sh := <-pending:
							if retired.Load() {
								pending <- sh
								return
							}
							c.dispatched.Inc()
							req := shardRequest[J, I]{V: protoVersion, Job: job, Start: sh.start, Items: items[sh.start:sh.end]}
							if err := runShard(ctx, c, peer, kind, req, put); err != nil {
								// Put the shard back for the survivors and
								// retire this peer: a worker that failed once
								// (crashed, drained, unreachable) is not
								// retried this job. Only the first failure
								// marks it down, so one job counts once
								// toward its backoff.
								pending <- sh
								first := !retired.Swap(true)
								if ctx.Err() == nil {
									c.peerFails.Inc()
									c.retries.Inc()
									if first {
										c.recordOutcome(peer, false)
									}
								}
								return
							}
							c.recordOutcome(peer, true)
							save(sh)
							if remaining.Add(-1) == 0 {
								close(done)
								return
							}
						}
					}
				}()
			}
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Whatever is left had no surviving peer to run on.
	for ; remaining.Load() > 0; remaining.Add(-1) {
		var sh shard
		select {
		case sh = <-pending:
		default:
			return nil, errors.New("cluster: shard accounting mismatch (coordinator bug)")
		}
		c.localShards.Inc()
		err := ParallelRange(ctx, sh.end-sh.start, func(ctx context.Context, i int) error {
			chaosSleep(ctx, c.evalDelay)
			r, err := eval(ctx, items[sh.start+i])
			if err != nil {
				return err
			}
			put(sh.start+i, r)
			return nil
		})
		if err != nil {
			return nil, err
		}
		save(sh)
	}
	for i := range filled {
		if !filled[i].Load() {
			return nil, fmt.Errorf("cluster: %s item %d never evaluated (coordinator bug)", kind, i)
		}
	}
	return out, nil
}

// runShard posts one shard to a peer and merges its streamed items through
// put. Any transport error, non-200 status, malformed line, item index
// outside the shard, a silence longer than c.idle, or a stream that ends
// without the "done" trailer fails the shard.
func runShard[J, I, R any](ctx context.Context, c *Coordinator, peer, kind string, sr shardRequest[J, I], put func(int, R)) error {
	body, err := json.Marshal(sr)
	if err != nil {
		return fmt.Errorf("cluster: shard request marshal: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	idle := time.AfterFunc(c.idle, cancel)
	defer idle.Stop()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/internal/shard/"+kind, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	idle.Reset(c.idle)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("cluster: peer %s: %s: %s", peer, resp.Status, bytes.TrimSpace(msg))
	}
	n := len(sr.Items)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		idle.Reset(c.idle) // the stream delivered bytes, keepalive spaces included
		return bufio.ScanLines(data, atEOF)
	})
	items := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l shardLine[R]
		if err := json.Unmarshal(line, &l); err != nil {
			return fmt.Errorf("cluster: bad stream line from %s: %w", peer, err)
		}
		switch l.Type {
		case "done":
			if l.Count != n {
				return fmt.Errorf("cluster: peer %s finished %d items, want %d", peer, l.Count, n)
			}
			return nil
		case "error":
			return fmt.Errorf("cluster: peer %s shard error: %s", peer, l.Error)
		case "item":
			if l.Item == nil || l.Index < sr.Start || l.Index >= sr.Start+n {
				return fmt.Errorf("cluster: peer %s sent item %d outside its shard [%d, %d)", peer, l.Index, sr.Start, sr.Start+n)
			}
			put(l.Index, *l.Item)
			c.itemsCtr.Inc()
			items++
		default:
			return fmt.Errorf("cluster: unexpected %q line from %s", l.Type, peer)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("cluster: stream from %s cut after %d items: %w", peer, items, err)
	}
	return fmt.Errorf("cluster: stream from %s ended after %d items without done", peer, items)
}
