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

# Full verification gate: build, the gofmt gate and vet, the plain test
# pass, the race pass, the perfbench helper tests, the allocation gate,
# and the chaos gate. The parallel experiment engine (exp.RunMany) makes
# the race run load-bearing — it exercises every experiment under
# concurrent execution — bench-smoke keeps the telemetry layer's
# zero-overhead-when-disabled promise honest, and
# chaos-smoke pins the failure-tolerance acceptance scenario,
# sensor-smoke the sensing-robustness one, and serve-smoke boots the
# live control-plane daemon under -race and hammers it with the load
# generator, so `make ci` is the bar for any change touching the
# harness. scale-smoke pins the fleet-scale hot path: sharded-tick
# determinism and the incremental-aggregation oracle at fleet scale,
# plus an allocation guard on the fleet tick benchmark.
# obs-smoke boots willowd with energy telemetry on and validates the
# /metrics exposition and /v1/efficiency scoreboard with the strict
# conformance checker. crash-smoke SIGKILLs a WAL-armed willowd at
# seeded points mid-run and requires recovery to be byte-identical to
# an uninterrupted run. failover-smoke promotes a hot standby through
# seeded kill/partition cycles and a scripted live migration, again
# requiring byte-identity with the unmoved run; both drive the one
# fault harness, cmd/willow-crash, in its crash, failover and migrate
# modes. bakeoff-smoke pins the controller-policy seam: willow
# byte-identical to the default controller, the bake-off table
# deterministic across worker counts with the robust policies holding
# the true-temperature cap, and the policy-dispatch benchmark through
# the allocation guard.
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
# shards 1/2/4/8, on a 10k-server fleet and on noisy and sensed 1k
# fleets) and the incremental-vs-full aggregation oracle on a
# 10k-server fleet, then a fleet tick benchmark pass through the
# allocation guard.
scale-smoke:
	$(GO) test -run 'TestShardInvariance' ./internal/cluster
	$(GO) test -run 'TestFullAggregationOracle' ./internal/core
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

# Live daemon gate: the concurrency, shutdown, and determinism pins
# under -race, then a real willowd booted on a random port, hammered
# with 1k willow-load requests, drained with SIGTERM, and resumed from
# its final snapshot — all with race-instrumented binaries.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestFastForwardMatchesOfflineRun|TestSnapshotRestoreRoundTrip|TestConcurrentAPIHammer|TestGracefulShutdownSnapshotRoundTrip|TestSlowSubscriberNeverStallsTicks' ./internal/server
	./scripts/serve_smoke.sh

# Observability gate: the energy-accounting determinism pins
# (shard-count invariance of the full energy report, snapshot/restore
# byte-identity), the exposition conformance round-trip, and a live
# willowd scraped end to end — /metrics parsed under the strict
# internal/obs parser and /v1/efficiency cross-checked for internal
# consistency, with race-instrumented binaries.
obs-smoke:
	$(GO) test -count=1 -run 'TestEnergyShardInvariance|TestExpositionRoundTrip|TestMetricsEndpoint|TestEfficiencyEndpoint|TestEnergySnapshotRestoreIdentity' ./internal/cluster ./internal/obs ./internal/server
	./scripts/obs_smoke.sh

# The process-level gates below run one race-instrumented fault
# harness, cmd/willow-crash, against a race-instrumented willowd. A
# failing case exits non-zero and prints its kept work directory.
RACE_HARNESS = bin/race/willow-crash -willowd bin/race/willowd

# Crash-safety gate: the WAL framing, torn-tail, and recovery pins
# under -race (corrupt-input tables included), then the harness in
# crash mode — willowd SIGKILLed five times mid-run at seeded points
# and restarted, with the final state, stats, journal, and assembled
# event stream required byte-identical to an uninterrupted replay of
# the same mutation history. Both seeds ack 11 mutations; seed 1's mix
# holds 2 live chaos injections and seed 4's holds 1, so chaos-mutation
# recovery is always exercised.
crash-smoke:
	$(GO) test -race -count=1 -run 'TestWAL|TestRecover|TestAdmission|TestCorrupt' ./internal/server
	$(GO) build -race -o bin/race/ ./cmd/willowd ./cmd/willow-crash
	$(RACE_HARNESS) -mode crash -cycles 5 -seed 1
	$(RACE_HARNESS) -mode crash -cycles 5 -seed 4

# Hot-standby gate: the replication, promotion, drain-ordering, and
# Retry-After contract pins under -race, then the harness in failover
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

# Short fuzz pass over the parser/packer/seed-derivation targets.
fuzz:
	$(GO) test -fuzz=FuzzFFDLR -fuzztime=10s ./internal/binpack
	$(GO) test -fuzz=FuzzMatchFFD -fuzztime=10s ./internal/binpack
	$(GO) test -fuzz=FuzzRead -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzReplicationSeeds -fuzztime=10s ./internal/exp
	$(GO) test -fuzz=FuzzOptionsSeed -fuzztime=10s ./internal/exp
	$(GO) test -fuzz=FuzzEventRoundTrip -fuzztime=10s ./internal/telemetry
	$(GO) test -fuzz=FuzzChaosSchedule -fuzztime=10s ./internal/chaos
	$(GO) test -fuzz=FuzzSensorSpec -fuzztime=10s ./internal/sensor
	$(GO) test -fuzz=FuzzPolicySpec -fuzztime=10s ./internal/policy
	$(GO) test -fuzz=FuzzIncrementalAggregation -fuzztime=10s ./internal/core

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
