# Developer entry points.  Everything is plain pytest underneath.

PYTHON ?= python

.PHONY: install test bench bench-paper-scale perf-smoke parallel-smoke robustness chaos shard-smoke rebalance-smoke measures-smoke incremental-smoke serve-smoke perfbench-smoke loc study serve examples clean

install:
	$(PYTHON) -m pip install -e ".[test]"

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# the paper's scale: 47 owners x 3,661 strangers (several minutes)
bench-paper-scale:
	REPRO_BENCH_OWNERS=47 REPRO_BENCH_STRANGERS=3661 \
		$(PYTHON) -m pytest benchmarks/ --benchmark-only

# vectorized scoring core at reduced scale: the E18 sections that pin
# the batch-NS, pool-graph and array-prediction equality contracts
# (speedup floors only assert at full scale), plus the fast-vs-reference
# unit suites (CI's perf-smoke job runs this target)
perf-smoke:
	$(PYTHON) -m pytest -q -o addopts= \
		tests/similarity/test_network_batch.py \
		tests/clustering/test_squeezer_fast.py \
		tests/classifier/test_prediction_oracle.py \
		tests/classifier/test_harmonic.py \
		tests/similarity/test_pool_oracle.py \
		tests/graph/test_adjacency_index.py
	REPRO_BENCH_OWNERS=3 REPRO_BENCH_STRANGERS=80 \
		$(PYTHON) -m pytest -q -o addopts= -s \
		"benchmarks/bench_perf_scaling.py::test_perf_pairwise_matrix" \
		"benchmarks/bench_perf_scaling.py::test_perf_pool_graph_build" \
		"benchmarks/bench_perf_scaling.py::test_perf_batch_network_similarity" \
		"benchmarks/bench_perf_scaling.py::test_perf_harmonic_array_vs_oracle" \
		"benchmarks/bench_perf_scaling.py::test_perf_harmonic_solve_cholesky_vs_lu" \
		"benchmarks/bench_perf_scaling.py::test_perf_benefits_array_vs_oracle"

# multi-process study: parallel-vs-serial digest and payload equality
# (fault plans included) and the picklable per-owner job
parallel-smoke:
	$(PYTHON) -m pytest -q -o addopts= \
		tests/experiments/test_study.py::TestParallelStudy \
		tests/experiments/test_study.py::TestScoreJob

# the resilience layer: retry/faults/checkpoint tests, then the faulted
# archetype benchmarks
robustness:
	$(PYTHON) -m pytest tests/resilience tests/faults \
		tests/io_/test_checkpoint.py tests/learning/test_degradation.py \
		tests/experiments/test_study_resilience.py
	$(PYTHON) -m pytest benchmarks/bench_robustness_archetypes.py --benchmark-only

# the chaos harness: kill -9 the serving process at injected crash
# points and prove no acknowledged mutation is ever lost (includes the
# @slow matrix that tier-1 skips), plus the WAL unit suite and the
# durability-tax benchmark
chaos:
	$(PYTHON) -m pytest -q -o addopts= \
		tests/service/test_wal.py tests/service/test_chaos.py
	REPRO_BENCH_OWNERS=2 REPRO_BENCH_STRANGERS=60 \
		$(PYTHON) -m pytest -q -o addopts= benchmarks/bench_wal_overhead.py

# the sharded topology: unit + router tests, the wire contract of the
# HTTP core the router shares with the workers, the 2-shard kill -9 /
# recover / isolation smoke, the @slow 4-shard mixed-load chaos gate,
# and the 1/2/4-shard scaling sweep at reduced scale
shard-smoke:
	$(PYTHON) -m pytest -q -o addopts= \
		tests/service/test_sharding.py \
		tests/service/test_http.py \
		tests/service/test_score_encoding.py \
		"tests/service/test_chaos.py::test_sharded_kill9_recovers_and_siblings_keep_serving" \
		"tests/service/test_chaos.py::test_sharded_kill9_under_mixed_load_isolates_and_recovers"
	REPRO_BENCH_SHARD_OWNERS=4 REPRO_BENCH_SHARD_STRANGERS=40 \
		$(PYTHON) -m pytest -q -o addopts= -s \
		"benchmarks/bench_service_throughput.py::test_sharded_scaling_throughput"

# live rebalancing: the ring-delta / slice / coordinator suites, the
# elastic-supervisor policy tests, then the process-level gate — grow
# 2->3 and shrink 3->2 under mixed load with a kill -9 mid-migration,
# plus the @slow kill matrix (every victim at every phase, router
# included) that tier-1 skips
rebalance-smoke:
	$(PYTHON) -m pytest -q -o addopts= \
		tests/service/test_rebalance.py \
		tests/service/test_supervisor.py \
		tests/service/test_rebalance_chaos.py

# the pluggable risk-measure subsystem: registry/scorer/serving suites,
# the per-measure sharded digest contract, and the per-measure E19
# throughput sweep at reduced scale
measures-smoke:
	$(PYTHON) -m pytest -q -o addopts= tests/measures \
		"tests/service/test_sharding.py::TestRouterScoring" \
		"tests/test_cli.py::TestParser::test_measure_choices_come_from_the_registry"
	REPRO_BENCH_OWNERS=3 REPRO_BENCH_STRANGERS=80 \
		$(PYTHON) -m pytest -q -o addopts= -s \
		"benchmarks/bench_service_throughput.py::test_measure_throughput"

# the incremental rescoring layer: the session driver's golden digests
# (cold, resumed, hooked and warm runs), pool independence (a changed
# pool re-runs alone), dirty-set/delta-replay unit suites, the
# Hypothesis stateful equivalence gate at cranked depth (every
# incremental warm digest must equal a cold recompute), and the E21
# single-edge mutation bench at reduced scale
incremental-smoke:
	INCREMENTAL_MACHINE_EXAMPLES=15 INCREMENTAL_MACHINE_STEPS=20 \
		$(PYTHON) -m pytest -q -o addopts= \
		tests/learning/test_session_driver.py \
		tests/learning/test_pool_independence.py \
		tests/service/test_dirty.py \
		tests/service/test_incremental.py
	REPRO_BENCH_INCREMENTAL_SIZES=1000 \
		$(PYTHON) -m pytest -q -o addopts= -s \
		benchmarks/bench_incremental.py

# the HTTP server: the wire contract, scheduler, admission/coalescing/
# group-commit suites, the kill -9 chaos gate under concurrent mutations (including
# the @slow mid-flight kill that tier-1 skips), and the E22
# latency-under-concurrency bench at reduced scale
serve-smoke:
	$(PYTHON) -m pytest -q -o addopts= \
		tests/service/test_http.py \
		tests/service/test_async_http.py \
		tests/service/test_score_encoding.py \
		tests/service/test_scheduler.py \
		"tests/service/test_wal.py::TestGroupCommit" \
		"tests/service/test_chaos.py::test_async_kill9_loses_no_group_committed_ack" \
		"tests/service/test_chaos.py::test_async_kill9_mid_flight_keeps_the_acked_prefix"
	REPRO_BENCH_E22_CONCURRENCY=16,64 REPRO_BENCH_E22_REQUESTS=8 \
		$(PYTHON) -m pytest -q -o addopts= -s \
		benchmarks/bench_latency_concurrency.py

# the repository benchmark's self-tests (perfbench/): tiny cold-score,
# served-mix and routed-mix runs that cross the router, the WAL and
# compaction, plus the digest checks every run makes
perfbench-smoke:
	$(PYTHON) -m pytest -q -o addopts= perfbench/test_perfbench.py

# Python line counts of the package, its service layer and the tests
# (the figures ROADMAP tracks)
loc:
	@for dir in src src/repro/service tests; do \
		printf '%-18s %6d\n' "$$dir" \
			"$$(find $$dir -name '*.py' -print0 | xargs -0 cat | wc -l)"; \
	done

study:
	$(PYTHON) -m repro --owners 8 --strangers 300

# the HTTP risk-scoring service (docs/service.md)
serve:
	$(PYTHON) -m repro serve --owners 4 --strangers 150 --warm-all

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/interactive_risk_audit.py --auto
	$(PYTHON) examples/crawl_and_learn.py
	$(PYTHON) examples/compare_strategies.py
	$(PYTHON) examples/risk_aware_applications.py
	$(PYTHON) examples/dynamic_graph.py
	$(PYTHON) examples/paper_study.py --owners 8 --strangers 200

clean:
	rm -rf build dist *.egg-info .pytest_cache benchmarks/out
	find . -name __pycache__ -type d -exec rm -rf {} +
