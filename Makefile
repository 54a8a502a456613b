# Tier-1 verification gate. `make check` is what CI (and the roadmap) runs.

GO ?= go

.PHONY: check fmt vet build test race bench bench-alloc bench-smoke check-batch check-metrics check-subscribe check-trace

check: fmt vet build test race check-batch check-metrics check-subscribe check-trace bench-alloc
	-@$(MAKE) --no-print-directory bench-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/telemetry ./internal/runtime ./internal/stream

bench:
	$(GO) test -bench . -benchmem

# Columnar-execution gate: the randomized differential fuzz drives the
# batched executor against the per-tuple scalar interpreter over generated
# op chains and adversarial window sizes (empty, all-filtered, exact batch
# boundaries), the bulk keytab/dyn-table probes against their scalar
# counterparts, and the full-workload differential proves WindowReports are
# bit-identical to the scalar oracle sequentially and at 1/2/8 workers.
check-batch:
	$(GO) test -run 'TestBatched|TestContainsKeyBatch' ./internal/stream
	$(GO) test -run 'TestLookupBulk' ./internal/keytab
	$(GO) test -run 'TestAppendKeyCols' ./internal/tuple
	$(GO) test -run 'TestShardedMatchesSequential' ./internal/runtime

# Metric-naming lint: instruments a full deployment (runtime + flight
# recorder) into one registry and runs telemetry.Registry.Lint over every
# family (sonata_ prefix, counter/gauge/histogram suffix rules, HELP text).
check-metrics:
	$(GO) test -run 'TestMetricsLint|TestLint' ./internal/runtime ./internal/telemetry

# Subscription delivery gate, under the race detector: the differential test
# proves concurrent subscribers observe the sequential runtime's per-window
# result sequence bit-identically at 1/2/8 workers, and the backpressure test
# proves a stalled consumer is evicted without delaying window close.
check-subscribe:
	$(GO) test -race -run 'TestSubscribe|TestPublishNeverBlocks|TestOnChange|TestSample|TestTargetDefined|TestDialOut' ./internal/subscribe

# Trace-tree gate, under the race detector: the ring/rotation test hammers
# eight single-writer lanes against concurrent window closes, and the
# runtime-level differential test proves retained span-tree structure is
# identical at 1/2/8 workers (plus the latency-triggered retention check).
check-trace:
	$(GO) test -race ./internal/tracez
	$(GO) test -race -run 'TestTraceTree|TestLatencyTriggered' ./internal/runtime

# Gating allocation budget: TestAllocBudget pins each hot path's allocs/op
# against alloc_budget.json (all zeros since the arena-backed state rewrite);
# the -benchmem run prints the same paths' current numbers for the log.
# Allocation counts are deterministic, so unlike bench-smoke this gate is not
# subject to perf noise and does fail `make check`.
bench-alloc:
	$(GO) test -run TestAllocBudget -benchtime 100x -benchmem \
		-bench 'BenchmarkSwitchProcess$$|BenchmarkEmitterRoundTrip$$|BenchmarkKeytabSteadyState$$' .

# Quick perf regression probe: the hot-path benchmarks, sequential vs
# sharded, at a fixed iteration count, swept at -cpu 1 (pure sharding
# overhead: one worker, no parallelism) and -cpu 4 (the parallel win when the
# runner has the cores). The end-to-end pattern also selects the
# flight-recorder (on/off) and tracer twins. The trailing awk pass distills
# two headlines into named metrics per cpu count —
# `sharded_vs_sequential_sp_tuples_ratio`, and
# `flightrec_on_vs_off_ns_ratio`, the recorder's tax on the ingest path
# (`cmd/sonata` always attaches it) — so the uploaded CI artifact carries
# both without anyone re-deriving them from raw benchmark lines.
# Non-gating in `make check` (perf noise must not fail CI); run it by hand
# and compare against the BENCH_pr*.json files.
bench-smoke:
	@rm -f bench-smoke.raw
	@for n in 1 4; do \
		$(GO) test -run xxx -benchtime 10x -cpu $$n \
			-bench 'BenchmarkEndToEndWindow|BenchmarkFig7bMultiQuery|BenchmarkEmitterRoundTrip|BenchmarkSwitchProcess' . \
			| tee -a bench-smoke.raw || exit 1; \
	done
	@awk '/^BenchmarkEndToEndWindow(FlightRec)?\/(sequential|sharded|on|off)/ { \
		cpu = $$1; sub(/^[^ ]*-/, "", cpu); if (cpu !~ /^[0-9]+$$/) cpu = 1; \
		v = 0; for (i = 1; i <= NF; i++) if ($$i == "sp_tuples/s") v = $$(i-1); \
		if ($$1 ~ /\/sequential/) seq[cpu] = v; else if ($$1 ~ /\/sharded/) sh[cpu] = v; \
		else if ($$1 ~ /\/on/) on[cpu] = $$3; else off[cpu] = $$3 } \
		END { for (c in sh) if (seq[c] > 0) \
			printf "sharded_vs_sequential_sp_tuples_ratio cpu=%s %.3f\n", c, sh[c] / seq[c]; \
		for (c in on) if (off[c] > 0) \
			printf "flightrec_on_vs_off_ns_ratio cpu=%s %.3f\n", c, on[c] / off[c] }' \
		bench-smoke.raw
	@rm -f bench-smoke.raw
