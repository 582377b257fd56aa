# Willow — reproduction of Kant, Murugan & Du, IPDPS 2011.
# Standard targets; everything is plain `go` underneath.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt vet test race ci perfbench-test cover bench bench-smoke bench-baseline scale-smoke chaos-smoke sensor-smoke serve-smoke obs-smoke crash-smoke failover-smoke bakeoff-smoke experiments report fuzz examples clean

all: build test

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite any
# tracked Go file.
fmt:
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { echo "fmt: no tracked Go files"; exit 1; }; \
	out=$$($(GOFMT) -l $$files) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full verification gate, in this order: build, the gofmt gate, vet,
# the plain test pass, the race pass (exp.RunMany runs every experiment
# concurrently, so -race is load-bearing), the perfbench helper tests,
# then the smokes:
#   - bench-smoke: allocs/op of the whole suite and the server
#     benchmarks against the checked-in baseline, which keeps the
#     telemetry layer's zero-overhead-when-disabled promise honest;
#   - scale-smoke: sharded-tick determinism and the incremental-
#     aggregation oracle at fleet scale, plus allocation guards on the
#     consume phase, the allocation pass and the fleet tick benchmark;
#   - chaos-smoke: the failure-tolerance acceptance scenario;
#   - sensor-smoke: the sensing-robustness one;
#   - serve-smoke: a live willowd under seeded load, drained with
#     SIGTERM and restored from its final snapshot;
#   - obs-smoke: a live willowd's /metrics and /v1/efficiency under two
#     concurrent strict checks;
#   - crash-smoke and failover-smoke: WAL recovery after SIGKILL,
#     failover and a live migration, each byte-identical to the
#     uninterrupted run;
#   - bakeoff-smoke: the controller-policy seam — willow byte-identical
#     to the default controller, a deterministic bake-off in which the
#     robust policies hold the true-temperature cap, and the
#     policy-dispatch benchmark through the allocation guard.
# The serve, obs, crash and failover smokes drive one race-instrumented
# harness, cmd/willow-crash, in its serve, obs, crash, failover and
# migrate modes.
ci: build fmt vet test race perfbench-test bench-smoke scale-smoke chaos-smoke sensor-smoke serve-smoke obs-smoke crash-smoke failover-smoke bakeoff-smoke

# The benchmark's helpers (perfbench/, its own module): window
# statistics and the metric tables, checked against BENCHMARK.json.
perfbench-test:
	cd perfbench && $(GO) test ./...

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

# One benchmark per paper table/figure (quick mode); -v prints the
# headline notes.
bench:
	$(GO) test -bench=. -benchmem .

# Allocation gate: one pass over the whole-suite benchmarks (nil sink
# and no-op telemetry sink), failing if allocs/op regress more than 10 %
# against the checked-in baseline. Alloc counts are machine-stable;
# timings are not compared.
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkAllSequential(Events)?$$' -benchtime 1x -benchmem . > bench_smoke.txt
	$(GO) test -run '^$$' -bench '^Benchmark(ServerTick|EventsFanout)$$' -benchtime 1x -benchmem ./internal/server >> bench_smoke.txt
	$(GO) run ./internal/tools/benchguard -input bench_smoke.txt -baseline docs/bench_baseline.txt

# Rewrite the baseline after an intentional allocation change: re-run
# every benchmark the bench-smoke, scale-smoke and bakeoff-smoke gates
# check, and merge the rows into the baseline (-update keeps rows the
# input lacks, so a partial run never drops another gate's rows).
bench-baseline:
	$(GO) test -run '^$$' -bench '^BenchmarkAllSequential(Events)?$$' -benchtime 1x -benchmem . > bench_smoke.txt
	$(GO) test -run '^$$' -bench '^Benchmark(ServerTick|EventsFanout)$$' -benchtime 1x -benchmem ./internal/server >> bench_smoke.txt
	$(GO) test -run '^$$' -bench '^BenchmarkFleetTick(Policy)?$$' -benchtime 10x -benchmem ./internal/cluster >> bench_smoke.txt
	$(GO) run ./internal/tools/benchguard -input bench_smoke.txt -baseline docs/bench_baseline.txt -update

# Fleet-scale gate: shard-count invariance (byte-identical streams for
# shards 1/2/3/4/8, on a 10k-server fleet and on noisy, sensed,
# consolidating, QoS-shedding and deficit-with-estimator 1k fleets),
# the incremental-vs-full aggregation oracle on a 10k-server fleet, the
# allocation-free consume phase (TestConsumeAllocFree: servers
# shedding, estimator armed, two shards) and allocation pass
# (TestAllocateAllocFree: two shards, leases, budget latency and loss),
# then a fleet tick benchmark pass through the allocation guard.
scale-smoke:
	$(GO) test -run 'TestShardInvariance' ./internal/cluster
	$(GO) test -run 'TestFullAggregationOracle|TestConsumeAllocFree|TestAllocateAllocFree' ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkFleetTick$$/^10k$$' -benchtime 10x -benchmem ./internal/cluster > scale_smoke.txt
	$(GO) run ./internal/tools/benchguard -input scale_smoke.txt -baseline docs/bench_baseline.txt

# Chaos gate: the end-to-end failure-tolerance scenarios — a seeded
# mid-tree PMU kill/repair run inside its hard constraints, the chaos
# plan plumbing, and worker-invariant event streams under fault
# injection.
chaos-smoke:
	$(GO) test -run 'TestChaosSmoke|TestMidTreePMUKillSafety|TestChaosEventStreamsWorkerInvariant' -count=1 ./internal/cluster ./internal/core ./internal/exp

# Sensing gate: corrupted telemetry in, safe thermal decisions out —
# the robust estimator holds the true-temperature cap under heavy
# sensor chaos where naive control violates it, and arming the
# estimator over clean sensors changes nothing, bit for bit.
sensor-smoke:
	$(GO) test -run 'TestSensorSmoke|TestSensingIdentityAtClusterScale|TestSensorChaosTrueTemperatureCap|TestSensingIdentityWhenDisabled' -count=1 ./internal/cluster ./internal/core

# The process-level gates below (serve, obs, crash and failover) run
# one race-instrumented harness, cmd/willow-crash, against a
# race-instrumented willowd. A failing case exits non-zero and prints
# its kept work directory.
RACE_HARNESS = bin/race/willow-crash -willowd bin/race/willowd

# Live daemon gate: the concurrency, shutdown, determinism and wire
# format pins (compact /v1/state, one event-stream flush per batch)
# under -race, then the harness in serve mode — a real willowd booted
# on a random port, hammered with 1k seeded requests from 8 clients
# while a subscriber streams events (any failed request fails the
# gate), drained with SIGTERM to a complete event file, and its final
# snapshot restored and fast-forwarded to completion.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestFastForwardMatchesOfflineRun|TestSnapshotRestoreRoundTrip|TestConcurrentAPIHammer|TestGracefulShutdownSnapshotRoundTrip|TestSlowSubscriberNeverStallsTicks|TestEventsStreamOneFlushPerBatch|TestStateResponseCompactJSON' ./internal/server
	$(GO) build -race -o bin/race/ ./cmd/willowd ./cmd/willow-crash
	$(RACE_HARNESS) -mode serve -tick 2ms -ticks 5000

# Observability gate: the energy-accounting determinism pins
# (shard-count invariance of the full energy report, snapshot/restore
# byte-identity), the exposition conformance round-trip, then the
# harness in obs mode — a live willowd scraped end to end by two
# concurrent checks, /metrics parsed under the strict internal/obs
# parser and /v1/efficiency cross-checked for internal consistency,
# then drained with SIGTERM to a final snapshot.
obs-smoke:
	$(GO) test -count=1 -run 'TestEnergyShardInvariance|TestExpositionRoundTrip|TestMetricsEndpoint|TestEfficiencyEndpoint|TestEnergySnapshotRestoreIdentity' ./internal/cluster ./internal/obs ./internal/server
	$(GO) build -race -o bin/race/ ./cmd/willowd ./cmd/willow-crash
	$(RACE_HARNESS) -mode obs -tick 2ms -ticks 5000

# Crash-safety gate: the journal format pins — framing, torn tail, the
# record bound, the committed version-3 snapshot (TestWALFormatPin) and
# the corrupt WAL and snapshot tables — and the recovery pins under
# -race, then the harness in crash mode — willowd SIGKILLed five times
# mid-run at seeded points and restarted, with the final state, stats,
# journal, and assembled event stream required byte-identical to an
# uninterrupted replay of the same mutation history. Both seeds ack 11 mutations; seed 1's mix
# holds 2 live chaos injections and seed 4's holds 1, so chaos-mutation
# recovery is always exercised.
crash-smoke:
	$(GO) test -race -count=1 -run 'TestWAL|TestRecover|TestAdmission|TestCorrupt' ./internal/server
	$(GO) build -race -o bin/race/ ./cmd/willowd ./cmd/willow-crash
	$(RACE_HARNESS) -mode crash -cycles 5 -seed 1
	$(RACE_HARNESS) -mode crash -cycles 5 -seed 4

# Hot-standby gate: the replication, promotion, drain-ordering, and
# Retry-After contract pins under -race (a standby's WAL must equal the
# primary's byte for byte, and a mutation's frame be the same bytes in
# a WAL, a snapshot and the stream), then the harness in failover
# mode — a primary killed at seeded ticks across three promote cycles
# while the replication link is partitioned and stalled (seed 2 runs
# five disruption rounds per cycle) — and in migrate mode, a scripted
# live migration; each must reproduce the uninterrupted run byte for
# byte. Seed 1 acks 8 mutations, none a chaos injection; seed 2 acks 7
# with 1 chaos injection, and the migration 5 with 1.
failover-smoke:
	$(GO) test -race -count=1 -run 'TestReplicat|TestFollower|TestPromote|TestMigration|TestDrain|TestRetryAfter|TestEventsFrom|TestEventRing' ./internal/server
	$(GO) build -race -o bin/race/ ./cmd/willowd ./cmd/willow-crash
	$(RACE_HARNESS) -mode failover -cycles 3 -seed 1
	$(RACE_HARNESS) -mode failover -cycles 3 -seed 2 -disruptions 5
	$(RACE_HARNESS) -mode migrate -seed 3

# Policy gate: the willow byte-identity pin and shard invariance of the
# stateful policies at 1k-server scale, the bake-off smoke (robust
# policies must hold the true 70 °C cap under machine+sensor chaos) and
# its worker-count determinism pin, then the policy-dispatch benchmark
# through the allocation guard — the willow row must hold the
# nil-policy BenchmarkFleetTick/1k profile.
bakeoff-smoke:
	$(GO) test -count=1 -run 'TestPolicyWillowIdentity|TestPolicyShardInvariance' ./internal/cluster
	$(GO) test -count=1 -run 'TestBakeoffSmoke|TestBakeoffDeterminism' ./internal/exp
	$(GO) test -run '^$$' -bench '^BenchmarkFleetTickPolicy$$' -benchtime 10x -benchmem ./internal/cluster > bakeoff_smoke.txt
	$(GO) run ./internal/tools/benchguard -input bakeoff_smoke.txt -baseline docs/bench_baseline.txt

# Regenerate the full evaluation section at full fidelity.
experiments:
	$(GO) run ./cmd/willow-exp -all

# Regenerate the committed markdown report.
report:
	$(GO) run ./cmd/willow-exp -report docs/REPORT.md

# Short fuzz pass over the parser, packer, placement, seed-derivation
# and spec-decoding targets, the journal decoder every WAL, snapshot
# and replication stream goes through, the fault-plan validator and
# the histogram's edge table.
fuzz:
	$(GO) test -fuzz=FuzzFFDLR -fuzztime=10s ./internal/binpack
	$(GO) test -fuzz=FuzzHistogramIndex -fuzztime=10s ./internal/metrics
	$(GO) test -fuzz=FuzzPlacement -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzRead -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzReplicationSeeds -fuzztime=10s ./internal/exp
	$(GO) test -fuzz=FuzzOptionsSeed -fuzztime=10s ./internal/exp
	$(GO) test -fuzz=FuzzEventRoundTrip -fuzztime=10s ./internal/telemetry
	$(GO) test -fuzz=FuzzChaosSchedule -fuzztime=10s ./internal/chaos
	$(GO) test -fuzz=FuzzPolicySpec -fuzztime=10s ./internal/policy
	$(GO) test -fuzz=FuzzIncrementalAggregation -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/cluster
	$(GO) test -fuzz=FuzzSpecDecode -fuzztime=10s ./internal/server
	$(GO) test -fuzz=FuzzJournal -fuzztime=10s ./internal/server

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hotzone
	$(GO) run ./examples/greenenergy
	$(GO) run ./examples/consolidation
	$(GO) run ./examples/devicelevel
	$(GO) run ./examples/failover

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_smoke.txt scale_smoke.txt bakeoff_smoke.txt
	rm -rf bin/race
