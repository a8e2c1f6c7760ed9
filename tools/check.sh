#!/usr/bin/env bash
# Tier-1 verification, three times:
#   1. plain Release build + ctest (the ROADMAP tier-1 command), plus
#      Release builds of the train-engine, serving, and monitoring
#      microbenchmarks so perf regressions in bench/bench_train_engine.cc,
#      bench/bench_serve.cc, and bench/bench_monitor.cc surface here, a
#      bench_train_engine --reps=1 run — the binary exits non-zero if any
#      model the presorted split engine trains (tree, AdaBoost, forest,
#      the gini/entropy AdaBoost grid as TrainDiversePool fits it, one
#      boosting run per depth x criterion cut into per-cell prefixes by
#      FitAdaBoostGrid, so this is the CI check of prefix identity)
#      differs in bytes or predictions from the frozen seed trainer's
#      cell-by-cell fits, or if any split-gain kernel
#      variant this CPU runs (baseline, avx2, avx512f) differs from the
#      baseline variant bit for bit (its split_gain_kernel case; the same
#      variant check runs in ctest as tests/split_scan_test.cc in every
#      build below) — and a short bench_infer run — the binary exits non-zero if a
#      compiled flat-node kernel's probabilities, in any kernel variant
#      this CPU runs (baseline, avx2, avx512f), diverge from its
#      interpreted model (the model-level and pool_walk cases), if a
#      batch or
#      one-row-per-call serving decision diverges from the sequential
#      Classify / ClassifyProba reference, or if the serving CentroidTable match differs from
#      the NearestCentroid reference on any probe row (its cluster_match
#      case, run by the ASan pass below too; golden-model bit-identity
#      itself runs in ctest via compiled_ensemble_test in every build
#      below) — and a
#      bench_serve --smoke run, which exits non-zero if sharded-fleet
#      decisions diverge from the single-loop reference at any shard
#      count, the fleet's achieved p99 exceeds 10x bench_serve's own
#      p99 target (1 ms by default),
#      or the snapshot-distribution row (full reload vs delta apply,
#      the "reload" object in BENCH_serve.json) serves
#      decisions diverging from the reference, and a bench_replicate
#      --smoke run, which exits non-zero if any fleet replica fails to
#      converge on the primary's content hash, serves decisions that
#      are not bit-identical to the primary's, stops serving during an
#      injected chain break, or fails to recover from it, plus a
#      bench_replicate --smoke --transport=socket run gating the
#      socket-push transport alone: a 4-replica fleet following a
#      unix-socket SocketPublisher feed must converge on every event
#      with decisions bit-identical to the primary's, and
#      `python3 e2ebench/run.py --selftest`, which builds the end-to-end
#      benchmark against src/ and runs its self-test, so an API break in
#      serve/, monitor/ or replicate/ fails here before the benchmark
#      does,
#   2. ThreadSanitizer build run with FALCC_THREADS=4 so data races in the
#      parallel runtime, the serving engine's hot-swap paths
#      (including concurrent classify during delta hot-swaps that share
#      the pool and its kernels and installs of freshly loaded models,
#      tests/compiled_ensemble_test.cc; decision-version tagging across
#      installs, tests/sharded_engine_test.cc), the sharded fleet's lock-free
#      submit rings, wakeup protocol, and shutdown drain under concurrent
#      submits racing hot-swaps (tests/sharded_engine_test.cc), and the
#      drift monitor's lock-free decision log under concurrent logging +
#      feedback + refresh (tests/serve_engine_test.cc,
#      tests/monitor_test.cc; `ctest -L serve` / `ctest -L monitor`), and
#      the replication puller's background pull-while-classify hot-swap
#      race (tests/replicate_test.cc; `ctest -L replicate`) fail loudly
#      even on single-core CI machines,
#   3. ASan+UBSan build so memory and UB errors in the pointer-heavy
#      split engine (ml/tree_builder.cc) and the compiled-kernel table
#      walks (ml/compiled_ensemble.cc) fail loudly; the serving tests run
#      here too, plus an ASan bench_train_engine --reps=1 pass over the
#      same engine-vs-seed-trainer identity (grid prefixes included) and
#      kernel-variant bit-identity checks and a short ASan
#      bench_infer pass over the same kernel-vs-interpreted and
#      batch-vs-sequential decision checks, one-row (n = 1) walks included.
#
# --fuzz-only instead runs the adversarial harness (`ctest -L fuzz`:
# tests/fuzz_test.cc mutation loops over the checked-in snapshot corpus
# and a freshly trained v2 sectioned snapshot,
# v2 delta artifacts and binary `pool` section payloads (the
# decoder every v2 load, checkpoint reload and replica reload runs; the
# decoded pool lowers its own kernels, never read from the file), +
# tests/fault_injection_test.cc byte sweeps including the per-section
# corruption sweep and the delta-prefix sweep against a live engine, +
# tests/cli_snapshot_test.cmake driving `falcc_cli snapshot inspect|verify`
# over every corpus seed layout) in the ASan+UBSan build with a
# 10k-iteration budget per fuzz target. Override the budget with
# FALCC_FUZZ_ITERS=<n>.
#
# Usage: tools/check.sh [--plain-only|--tsan-only|--asan-only|--fuzz-only]
set -euo pipefail
cd "$(dirname "$0")/.."

run_plain=1
run_tsan=1
run_asan=1
run_fuzz=0
case "${1:-}" in
  --plain-only) run_tsan=0; run_asan=0 ;;
  --tsan-only) run_plain=0; run_asan=0 ;;
  --asan-only) run_plain=0; run_tsan=0 ;;
  --fuzz-only) run_plain=0; run_tsan=0; run_asan=0; run_fuzz=1 ;;
  "") ;;
  *) echo "usage: tools/check.sh [--plain-only|--tsan-only|--asan-only|--fuzz-only]" >&2; exit 2 ;;
esac

jobs="$(nproc 2>/dev/null || echo 2)"

if [[ "$run_plain" == 1 ]]; then
  echo "=== check 1/3: plain build + ctest ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
  echo "=== check 1/3 (cont.): Release microbenchmark builds ==="
  cmake --build build -j "$jobs" --target bench_train_engine
  cmake --build build -j "$jobs" --target bench_serve
  cmake --build build -j "$jobs" --target bench_monitor
  cmake --build build -j "$jobs" --target bench_infer
  echo "=== check 1/3 (cont.): train-engine identity check (engine == seed trainer) ==="
  ./build/bench/bench_train_engine --reps=1 \
    --out=build/BENCH_train_check.json
  echo "=== check 1/3 (cont.): compiled-kernel decision check ==="
  ./build/bench/bench_infer --rows=4000 --reps=2 \
    --out=build/BENCH_infer_check.json
  echo "=== check 1/3 (cont.): sharded-serving smoke (divergence + 10x-SLO gate) ==="
  ./build/bench/bench_serve --smoke --out=build/BENCH_serve_smoke.json
  echo "=== check 1/3 (cont.): replication tests + fleet-divergence smoke ==="
  ctest --test-dir build -L replicate --output-on-failure
  cmake --build build -j "$jobs" --target bench_replicate
  ./build/bench/bench_replicate --smoke --out=build/BENCH_replicate_smoke.json
  echo "=== check 1/3 (cont.): socket-transport smoke (convergence + identity gate) ==="
  ./build/bench/bench_replicate --smoke --transport=socket \
    --out=build/BENCH_replicate_socket_smoke.json
  echo "=== check 1/3 (cont.): e2ebench build against src/ + self-test ==="
  python3 e2ebench/run.py --selftest
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "=== check 2/3: FALCC_SANITIZE=thread, FALCC_THREADS=4 ==="
  cmake -B build-tsan -S . -DFALCC_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$jobs"
  FALCC_THREADS=4 TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -j "$jobs"
  FALCC_THREADS=4 TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan -L replicate --output-on-failure
fi

if [[ "$run_asan" == 1 ]]; then
  echo "=== check 3/3: FALCC_SANITIZE=address-undefined ==="
  cmake -B build-asan -S . -DFALCC_SANITIZE=address-undefined >/dev/null
  cmake --build build-asan -j "$jobs"
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan -L replicate --output-on-failure
  cmake --build build-asan -j "$jobs" --target bench_train_engine
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/bench/bench_train_engine --reps=1 \
    --out=build-asan/BENCH_train_check.json
  cmake --build build-asan -j "$jobs" --target bench_infer
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/bench/bench_infer --rows=1000 --reps=1 \
    --out=build-asan/BENCH_infer_check.json
fi

if [[ "$run_fuzz" == 1 ]]; then
  echo "=== fuzz: ASan+UBSan build, ctest -L fuzz, ${FALCC_FUZZ_ITERS:-10000} iters/target ==="
  cmake -B build-asan -S . -DFALCC_SANITIZE=address-undefined >/dev/null
  cmake --build build-asan -j "$jobs"
  FALCC_FUZZ_ITERS="${FALCC_FUZZ_ITERS:-10000}" \
    ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan -L fuzz --output-on-failure
fi

echo "all checks passed"
