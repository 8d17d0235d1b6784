# Convenience targets; all builds are fully offline (deps vendored under
# third_party/).

CARGO ?= cargo

.PHONY: build test clippy lint-metrics fault-matrix inspect-smoke tsan \
	perfbench-smoke verify bench bench-baseline bench-smoke bench-dense bench-dense-smoke \
	bench-pipeline bench-pipeline-smoke bench-comms bench-comms-smoke \
	bench-capacity bench-capacity-smoke bench-schema clean

build:
	$(CARGO) build --release --offline --workspace

test:
	$(CARGO) test -q --offline --workspace

clippy:
	$(CARGO) clippy --offline --workspace --all-targets -- -D warnings

# Metric-name hygiene: every dotted name used in code is defined in
# hetgmp_telemetry::names and documented in TELEMETRY.md.
lint-metrics:
	sh scripts/check_metric_names.sh

# Fault-injection smoke matrix: crash (with checkpoint/restore), stall,
# and link degradation through the release CLI under --audit=strict.
fault-matrix: build
	sh scripts/fault_matrix.sh

# End-to-end smoke of `het-gmp inspect`: a tiny fixed-seed run feeds all
# three modes; the report must match the committed golden byte-for-byte
# (manifest line filtered — its git rev changes every commit) and an
# injected regression must flip diff's exit code.
inspect-smoke: build
	sh scripts/inspect_smoke.sh

# One-second run of every benchmark workload (perfbench/run.py, declared
# in BENCHMARK.json) at seed 1; each result line must report
# "correct": true and "failed": 0. The benchmark builds itself into
# .bench_build.
perfbench-smoke:
	sh scripts/perfbench_smoke.sh

# ThreadSanitizer over the seqlock read path's concurrent test suite.
# Needs a nightly toolchain (-Zsanitizer=thread is unstable); the script
# skips with a notice when nightly is absent, so this target is safe to
# run anywhere but only *checks* where nightly is installed. Not part of
# `make verify` for the same reason.
tsan:
	sh scripts/tsan.sh

# The gate every change must pass: release build, full test suite, clippy
# with warnings denied, metric-name lint, the fault-injection matrix, the
# perf-baseline schema check, the inspect smoke, and the benchmark smoke.
verify: build test clippy lint-metrics fault-matrix bench-schema inspect-smoke \
	perfbench-smoke

bench:
	$(CARGO) bench --offline --workspace

# The perf baseline: criterion microbenchmarks plus the fixed-seed hot-path
# run that writes BENCH_hotpath.json (batched vs per-row table ops and
# end-to-end training throughput).
bench-baseline: build
	$(CARGO) bench --offline -p hetgmp-bench --bench bench_embedding
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_hotpath

# Five-second subset: same BENCH_hotpath.json schema, shrunk workload.
bench-smoke: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_hotpath -- --smoke

# The dense-engine baseline: criterion GEMM microbenchmarks plus the
# fixed-seed run that writes BENCH_dense.json (blocked vs naive kernels and
# allocation-free end-to-end training throughput).
bench-dense: build
	$(CARGO) bench --offline -p hetgmp-bench --bench bench_gemm
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_dense

# Shrunk dense baseline: same BENCH_dense.json schema.
bench-dense-smoke: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_dense -- --smoke

# The pipelined-trainer baseline: the bench_dense end-to-end workload swept
# over pipeline depths {1,2,4}, writing BENCH_pipeline.json (samples/s,
# stage stall %, overlap ratio per depth; asserts bit-identical AUC).
bench-pipeline: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_pipeline
	sh scripts/check_bench_schema.sh BENCH_pipeline.json

# Shrunk depth sweep: same schema, written to BENCH_pipeline.smoke.json.
bench-pipeline-smoke: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_pipeline -- --smoke

# The compressed-communication baseline: one fixed-seed workload swept over
# the sync wire formats (f32/f16/bf16/int8), writing BENCH_comms.json
# (bytes charged per format, quant counters, final AUC; asserts int8 moves
# ≥ 3.5x fewer embedding bytes with AUC within 0.5% of f32).
bench-comms: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_comms
	sh scripts/check_bench_schema.sh BENCH_comms.json

# Shrunk format sweep: same schema, written to BENCH_comms.smoke.json.
bench-comms-smoke: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_comms -- --smoke

# The tiered-storage capacity baseline: a (rows x dim) ladder past a fixed
# RAM budget, each rung run in-memory, tiered+ordered, and tiered+LRU,
# writing BENCH_capacity.json (faults/epoch, samples/s vs in-memory;
# asserts bit-identical AUC across tiers and that batch ordering strictly
# reduces page faults on the over-budget rungs).
bench-capacity: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_capacity
	sh scripts/check_bench_schema.sh BENCH_capacity.json

# Shrunk ladder: same schema, written to BENCH_capacity.smoke.json.
bench-capacity-smoke: build
	$(CARGO) run --release --offline -p hetgmp-bench --bin bench_capacity -- --smoke

# Schema gate for all five committed baselines: runs the smoke benches (which
# write *.smoke.json siblings, never touching the committed full-run files)
# and validates both the fresh smoke output and the committed baselines —
# including the doc-drift check that every "NN.Nk samples/s" figure quoted
# in ROADMAP.md/CHANGES.md still matches a committed BENCH_*.json.
bench-schema: bench-smoke bench-dense-smoke bench-pipeline-smoke bench-comms-smoke bench-capacity-smoke
	sh scripts/check_bench_schema.sh BENCH_hotpath.smoke.json
	sh scripts/check_bench_schema.sh BENCH_dense.smoke.json
	sh scripts/check_bench_schema.sh BENCH_pipeline.smoke.json
	sh scripts/check_bench_schema.sh BENCH_comms.smoke.json
	sh scripts/check_bench_schema.sh BENCH_capacity.smoke.json
	sh scripts/check_bench_schema.sh
	sh scripts/check_bench_schema.sh BENCH_dense.json
	sh scripts/check_bench_schema.sh BENCH_pipeline.json
	sh scripts/check_bench_schema.sh BENCH_comms.json
	sh scripts/check_bench_schema.sh BENCH_capacity.json

clean:
	$(CARGO) clean
