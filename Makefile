# Convenience targets for the ENA reproduction.

.PHONY: all build fmt-check test test-race test-service test-store test-cluster test-dse test-fabric test-exp test-workload chaos-short chaos-cluster vet fuzz-short verify bench bench-json bench-compare serve load-smoke experiments csv examples clean

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

# Every tracked Go file must be gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

test:
	go test ./...

# Full suite under the race detector; the obs registry and the simulator
# worker pools are exercised concurrently by internal/obs and internal/dse.
test-race:
	go test -race ./...

# The service layer (scheduler, cache, HTTP handlers) under the race
# detector — its tests are concurrency-heavy by design.
test-service:
	go test -race ./internal/service/...

# The persistent result store under the race detector: concurrent Put/Get,
# LRU garbage collection, corruption recovery, and cross-restart reads.
test-store:
	go test -race ./internal/store/

# The sweep-sharding tier under the race detector: the coordinator's
# fan-out/failover paths and the bit-identity of sharded merges against the
# single-process sweeps. Three passes, because every peer runs two pullers
# that race on its retirement flag and the requeue path.
test-cluster:
	go test -race -count=3 ./internal/cluster/ ./internal/load/

# The exploration tier under the race detector: the DSE sweep engine (worker
# pools, perf-phase cache) and the surrogate explorer, whose determinism
# contract — bit-identical results at any parallelism, full-budget equality
# with the exhaustive sweep — is exactly what races would break.
test-dse:
	go test -race ./internal/dse/ ./internal/surrogate/

# The inter-node fabric under the race detector: the property tests pin the
# analytic collective costs against the event-driven replay, and the curve
# evaluator's worker pool must stay bit-identical across worker counts.
test-fabric:
	go test -race ./internal/fabric/

# The experiment harnesses' worker pools under the race detector: Figure 7
# and the NoC ablation fan their seeded simulations out and share Fig. 7's
# runs, scaling prices every series on one shared communicator, inference
# replays its batch sweep in parallel, and the thermal DSE screens its
# points in parallel — all must stay bit-identical at any GOMAXPROCS.
test-exp:
	go test -race -run 'Figure7|AblationNoC|Scaling|Inference|ThermalDSE' ./internal/exp/

# The DL kernel generators and the batched-FIFO serving simulator under the
# race detector: the inference experiment's worker pool must stay
# bit-identical across worker counts.
test-workload:
	go test -race ./internal/workload/ ./internal/serving/

# Chaos suite: the service layer under the race detector with fault
# injection on — injected panics, latency and stalls, cancelled clients under
# overload, and deadline fallbacks must all be survived, not just tolerated.
chaos-short:
	go test -race -run='Chaos|Overload|Fault|CacheEviction|CacheInflight' ./internal/service/
	go test -run='Apply|Surface|Chaos' ./internal/faults/

# Short fuzz pass over the fault-mask parser, the DL spec / batch-list /
# space-spec parsers (never panic; accepted inputs are canonical fixed
# points), the job journal fold, the shard-wire decoder (a 400 or a stream
# ending in done/error), the simulate handler (a 4xx, or a 200 whose body
# decodes) and the explore handler (a 4xx, or a 202 carrying a job);
# accepted requests of both keep their cache key through a marshal round
# trip. The event kernel runs decoded programs of At, Cancel, Step,
# RunUntil and Run against a stable-sorted reference queue.
fuzz-short:
	go test -run='^$$' -fuzz=FuzzParseMask -fuzztime=5s ./internal/faults
	go test -run='^$$' -fuzz=FuzzParseDL -fuzztime=5s ./internal/workload
	go test -run='^$$' -fuzz=FuzzParseBatchList -fuzztime=5s ./internal/workload
	go test -run='^$$' -fuzz=FuzzJournalFold -fuzztime=5s ./internal/store
	go test -run='^$$' -fuzz=FuzzParseSpace -fuzztime=5s ./internal/dse
	go test -run='^$$' -fuzz=FuzzShardRequest -fuzztime=5s ./internal/cluster
	go test -run='^$$' -fuzz=FuzzSimulateRequest -fuzztime=5s ./internal/service
	go test -run='^$$' -fuzz=FuzzExploreRequest -fuzztime=5s ./internal/service
	go test -run='^$$' -fuzz=FuzzEventOrder -fuzztime=5s ./internal/event

# Process-kill chaos: a 3-replica shared-store cluster runs a default-space
# explore while a seeded loop SIGKILLs a random replica mid-sweep; survivors
# must adopt the job, resume its checkpointed shards, and serve the
# bit-identical single-process result. Iteration 0 always kills the
# coordinator. Tune with CHAOS_CLUSTER_ITERS / CHAOS_CLUSTER_SEED.
chaos-cluster:
	CHAOS_CLUSTER_ITERS=$${CHAOS_CLUSTER_ITERS:-5} CHAOS_CLUSTER_SEED=$${CHAOS_CLUSTER_SEED:-1} \
		go test -count=1 -run='TestChaosClusterSIGKILL' -v ./cmd/enaserve/

# Tier-1 verification gate: everything must build, vet clean, and pass,
# including the race pass over the service layer and the chaos suite. The
# cache, simulate, store-restart, admission, queue-full, resident-experiment
# and durable-job tests run twenty times over, which shows that their waits
# on counters and on the job queue are not flaky. The bench gate
# is a soft warning (leading '-'): it only compares snapshots already
# committed, so it never blocks when fewer than two exist.
verify: build fmt-check vet test test-service test-store test-cluster test-dse test-fabric test-exp test-workload chaos-short
	go test -count=20 -run 'TestCache|TestSimulate|TestStoreServesAcrossRestart|TestAdmission|TestExploreQueueFull|TestExperimentResident|TestDurable' ./internal/service/
	go test -count=20 ./internal/cluster/
	CHAOS_CLUSTER_ITERS=1 go test -count=1 -run='TestChaosClusterSIGKILL' ./cmd/enaserve/
	-@$(MAKE) --no-print-directory bench-compare

# Regenerate every table/figure and record the outputs (the reproduction log).
bench:
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Machine-readable perf snapshot: run the root bench suite and record a
# dated JSON summary for the repo's performance trajectory.
bench-json:
	go test -run='^$$' -bench=. -benchmem . | go run ./cmd/enabench -out BENCH_$$(date +%Y-%m-%d).json

# Diff the two most recent BENCH_*.json snapshots with a ±10% wall-time gate
# on the guarded hot paths (cmd/enabench's defaultGate: Figure 10/11,
# Table II, SimulateNode, the NoC sim, fabric, inference, the service tier
# and exploration). Regressions warn; add -strict in CI to hard-fail.
bench-compare:
	@set -- $$(ls -t BENCH_*.json 2>/dev/null); \
	if [ $$# -lt 2 ]; then echo "bench-compare: need two BENCH_*.json snapshots (have $$#)"; exit 0; fi; \
	new=$$1; old=$$2; \
	go run ./cmd/enabench -compare $$old $$new

# Run the simulation service (POST /v1/simulate, /v1/explore, GET /metrics).
serve:
	go run ./cmd/enaserve

# Quick saturation probe: boot a throwaway enaserve on a local port, ramp a
# short closed-loop run through enaload, and record the curve artifact.
load-smoke:
	@go build -o /tmp/enaserve-smoke ./cmd/enaserve && go build -o /tmp/enaload-smoke ./cmd/enaload; \
	/tmp/enaserve-smoke -addr 127.0.0.1:18080 & pid=$$!; \
	sleep 1; \
	/tmp/enaload-smoke -url http://127.0.0.1:18080 -ramp 1,4,16 -stage 2s -out LOAD_smoke.json; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	exit $$rc

experiments:
	go run ./cmd/enasim -all

csv:
	go run ./cmd/enaexport -out csv

examples:
	go run ./examples/quickstart
	go run ./examples/designsweep
	go run ./examples/memorytiers
	go run ./examples/taskgraph
	go run ./examples/reconfigure

clean:
	rm -rf csv test_output.txt bench_output.txt
