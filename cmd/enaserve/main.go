// Command enaserve runs the ENA simulation service: an HTTP/JSON API that
// executes node simulations and design-space explorations on a bounded
// worker pool, deduplicating identical requests through a content-addressed
// result cache.
//
// Usage:
//
//	enaserve                        # listen on :8080
//	enaserve -addr 127.0.0.1:9090   # custom listen address
//	enaserve -workers 8 -queue 128  # bigger job pool
//	enaserve -job-timeout 5m        # default per-job deadline
//	enaserve -chaos -chaos-seed 7   # runtime fault injection (testing)
//	enaserve -store-dir /var/ena    # persistent result store (survives restarts)
//	enaserve -worker -addr :8081    # shard-evaluation worker peer
//	enaserve -peers http://h1:8081,http://h2:8081   # shard sweeps across peers
//	enaserve -store-dir /var/ena -lease-ttl 10s     # durable jobs: journal, leases, adoption
//	enaserve -drain-timeout 5s      # journal in-flight jobs interrupted at the deadline
//
// Endpoints (see internal/service for the full API):
//
//	POST /v1/simulate           one node simulation, cached
//	POST /v1/explore            async DSE sweep job (poll GET /v1/jobs/{id})
//	GET  /v1/experiments/{id}   paper table/figure harnesses
//	GET  /metrics               metrics snapshot (JSON)
//	GET  /healthz               liveness
//	GET  /v1/healthz            readiness (503 while draining)
//
// On SIGINT/SIGTERM the server stops listening, lets in-flight requests and
// jobs finish within the grace period, then force-cancels whatever remains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ena/internal/faults"
	"ena/internal/obs"
	"ena/internal/service"
	"ena/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("enaserve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "job worker-pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", service.DefaultQueueCap, "max queued jobs before submissions get 503 + Retry-After")
	cacheSize := fs.Int("cache", service.DefaultCacheSize, "result-cache capacity (entries)")
	jobTimeout := fs.Duration("job-timeout", 10*time.Minute, "default per-job deadline (0 = none)")
	grace := fs.Duration("grace", 30*time.Second, "shutdown grace period before force-cancelling jobs")
	chaos := fs.Bool("chaos", false, "inject runtime faults (worker panics, request latency, job stalls)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the chaos injector's draws")
	storeDir := fs.String("store-dir", "", "persistent result-store directory (empty = memory cache only)")
	storeMB := fs.Int64("store-max-mb", 256, "result-store size cap in MiB before LRU garbage collection")
	peers := fs.String("peers", "", "comma-separated worker base URLs to shard explore/scale sweeps across")
	workerMode := fs.Bool("worker", false, "worker mode: serve only the internal shard-evaluation routes (plus health and metrics)")
	admitSim := fs.Int("admit-sim", 0, "simulate-route concurrency budget (0 = 2x GOMAXPROCS, <0 = ungoverned)")
	admitQueue := fs.Int("admit-queue", 0, "bounded admission-queue depth per sync route (simulate, experiments) before 503 + Retry-After (0 = 4x budget)")
	ownerID := fs.String("owner-id", "", "replica id stamped into job leases (empty = hostname-pid)")
	leaseTTL := fs.Duration("lease-ttl", service.DefaultLeaseTTL, "job lease lifetime; a replica dead this long loses its jobs to adoption")
	adoptEvery := fs.Duration("adopt-interval", 0, "journal scan interval for adoptable jobs (0 = lease-ttl)")
	probeEvery := fs.Duration("probe-interval", 0, "peer health-probe cadence (0 = 2s default)")
	drainTimeout := fs.Duration("drain-timeout", 0, "job-drain deadline on shutdown; past it in-flight jobs are journalled interrupted (0 = grace period)")
	evalDelay := fs.Duration("chaos-eval-delay", 0, "chaos knob: sleep per evaluated sweep item, stretching jobs for kill tests")
	fs.Parse(args)

	// The signal context only triggers the drain sequence. Jobs run under
	// context.Background() so they get the full grace period; Drain
	// force-cancels whatever is still running when it expires.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	var inj *faults.Chaos
	if *chaos {
		inj = faults.NewChaos(faults.DefaultChaosConfig(*chaosSeed), reg)
		fmt.Fprintf(os.Stderr, "enaserve: chaos injection ON (seed %d) — do not use in production\n", *chaosSeed)
	}
	var st *store.Store
	var jr *store.Journal
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, *storeMB<<20, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "enaserve: store:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "enaserve: result store at %s (%d entries resident)\n", *storeDir, st.Len())
		if !*workerMode {
			jr, err = store.OpenJournal(*storeDir, reg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "enaserve: journal:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "enaserve: job journal at %s/jobs (%d journalled)\n", *storeDir, jr.Len())
		}
	}
	if *ownerID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "enaserve"
		}
		*ownerID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	// The server's base context: jobs keep running across the drain window
	// and are force-cancelled (journalled interrupted) when it ends.
	srvCtx, srvCancel := context.WithCancel(context.Background())
	defer srvCancel()
	srv := service.New(srvCtx, service.Config{
		Workers:       *workers,
		QueueCap:      *queue,
		CacheSize:     *cacheSize,
		JobTimeout:    *jobTimeout,
		Reg:           reg,
		Chaos:         inj,
		Store:         st,
		Journal:       jr,
		OwnerID:       *ownerID,
		LeaseTTL:      *leaseTTL,
		AdoptEvery:    *adoptEvery,
		ProbeInterval: *probeEvery,
		EvalDelay:     *evalDelay,
		Peers:         peerList,
		WorkerOnly:    *workerMode,
		AdmitSimulate: *admitSim,
		AdmitQueue:    *admitQueue,
	})
	if jr != nil {
		if n := reg.Counter("jobs.recovered").Value(); n > 0 {
			fmt.Fprintf(os.Stderr, "enaserve: recovered %d journalled job(s)\n", n)
		}
	}
	if *evalDelay > 0 {
		fmt.Fprintf(os.Stderr, "enaserve: chaos eval delay %v per sweep item — do not use in production\n", *evalDelay)
	}
	if *workerMode {
		fmt.Fprintln(os.Stderr, "enaserve: worker mode — serving shard-evaluation routes only")
	}
	if len(peerList) > 0 {
		fmt.Fprintf(os.Stderr, "enaserve: sharding sweeps across %d worker peer(s)\n", len(peerList))
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "enaserve: listening on %s\n", *addr)

	select {
	case <-ctx.Done():
		// Signal: stop the listener first so no new work arrives, then
		// drain the job pool within the grace period.
		fmt.Fprintln(os.Stderr, "enaserve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "enaserve: http shutdown:", err)
		}
		// The drain deadline: past it, running jobs are force-cancelled and —
		// with a journal — recorded as interrupted, so a restart (or a peer
		// sharing the store) resumes them from their checkpoints.
		dt := *drainTimeout
		if dt <= 0 {
			dt = *grace
		}
		drainCtx, dcancel := context.WithTimeout(context.Background(), dt)
		defer dcancel()
		if err := srv.Drain(drainCtx); err != nil {
			n := reg.Counter("jobs.interrupted").Value()
			fmt.Fprintf(os.Stderr, "enaserve: drain deadline (%v) expired: %v — %d job(s) journalled interrupted (recoverable on restart)\n", dt, err, n)
			return 1
		}
		stats := srv.Stats()
		line := fmt.Sprintf("enaserve: drained cleanly (cache: %d entries, %d hits / %d misses, ratio %.2f, %d coalesced",
			stats.CacheEntries, stats.CacheHits, stats.CacheMisses, stats.CacheHitRatio, stats.CacheCoalesced)
		if stats.Store != nil {
			line += fmt.Sprintf("; store: %d entries, %d bytes, %d hits / %d misses, %d writes",
				stats.Store.Entries, stats.Store.Bytes, stats.Store.Hits, stats.Store.Misses, stats.Store.Writes)
		}
		fmt.Fprintln(os.Stderr, line+")")
		return 0
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "enaserve:", err)
			return 1
		}
		return 0
	}
}
