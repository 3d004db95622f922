#!/usr/bin/env bash
# CI gate: tier-1 tests, sanitizer runs (ASan/UBSan + TSan), the
# design-integrity lint, and the pass-contract audit (static + runtime).
#
#   scripts/ci.sh            # everything (four build trees)
#   scripts/ci.sh --fast     # tier-1 + lint/audit only, skip tidy + sanitizers
#
# Exits nonzero on the first failing stage.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Stamp perf-ledger records (gnnmls_lint --ledger / gnnmls_report ingest)
# with the revision under test, so cross-run diffs name their endpoints.
GNNMLS_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export GNNMLS_GIT_REV

echo "==> tier-1: build + ctest (build/)"
cmake -B build -S . -DGNNMLS_WERROR=ON
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "==> lint gate: gnnmls_lint on the quickstart design (maeri16)"
# The first run also exercises the observability exports: an end-of-run
# metrics snapshot (counters/gauges/histogram quantiles as JSON) and one
# schema-versioned perf-ledger record appended to PERF_LEDGER.jsonl.
rm -f PERF_LEDGER.jsonl
./build/tools/gnnmls_lint --design maeri16 --strategy sota \
  --metrics-out=LINT_metrics.json --ledger=PERF_LEDGER.jsonl | tee LINT_sota.txt
./build/tools/gnnmls_lint --design maeri16 --strategy sota --with-dft

echo "==> metrics-snapshot gate: the JSON dump must carry the flow's histograms"
grep -q '"route.edge_route_s"' LINT_metrics.json
grep -q '"flow.snapshot_bytes"' LINT_metrics.json
grep -q '"route.nets_routed"' LINT_metrics.json
rm -f LINT_metrics.json
grep -q '"kind":"flow"' PERF_LEDGER.jsonl
echo "metrics-snapshot gate OK"

echo "==> schedule-analysis gate: declared pass contracts must prove clean"
# Layer-1 static audit (src/audit/): without running anything, the
# canonical pass list must partition into conflict-free waves with every read
# driven, every write consumed, and every possible mutation covered by the
# wave snapshots (AU-00x). The negative probe then runs sta alone — its
# routes input is undriven in that schedule, and the analyzer must refute it
# with a nonzero exit, proving the gate can actually fail. The order probe
# names sta before route: --only filters the list into canonical order, so
# route drives sta's read and the analysis is clean, as the run is.
./build/tools/gnnmls_lint --analyze-schedule | tee LINT_schedule.txt
grep -q 'schedule-analysis: passes=7 waves=4 conflicts=0 undriven=0 unused=0 rollback_holes=0 duplicates=0' \
  LINT_schedule.txt
rm -f LINT_schedule.txt
if ./build/tools/gnnmls_lint --analyze-schedule --only=sta >LINT_schedule_neg.txt 2>&1; then
  echo "schedule-analysis gate FAILED: an undriven read was not refuted"
  cat LINT_schedule_neg.txt
  exit 1
fi
grep -q 'undriven=1' LINT_schedule_neg.txt
rm -f LINT_schedule_neg.txt
if ! ./build/tools/gnnmls_lint --analyze-schedule --only=sta,route >LINT_schedule_order.txt 2>&1; then
  echo "schedule-analysis gate FAILED: --only=sta,route was not analyzed in canonical order"
  cat LINT_schedule_order.txt
  exit 1
fi
grep -q 'undriven=0' LINT_schedule_order.txt
rm -f LINT_schedule_order.txt
echo "schedule-analysis gate OK"

echo "==> audit gate: runtime access audit must observe zero contract violations"
# Layer-2 dynamic audit: the same flow with the DesignDB access recorder on
# (GNNMLS_AUDIT=1) — every pass's observed stage accesses diffed against its
# declarations (AU-10x). The greppable summary must report all-zero counts.
GNNMLS_AUDIT=1 ./build/tools/gnnmls_lint --design maeri16 --strategy sota --with-dft \
  | tee LINT_audit.txt
grep -qE 'audit: passes=[0-9]+ undeclared_writes=0 undeclared_reads=0' LINT_audit.txt
rm -f LINT_audit.txt
echo "audit gate OK"

echo "==> pass-skip gate: a second evaluate on a clean DB must schedule nothing"
# gnnmls_lint re-runs evaluate() after the flow and prints the scheduler's
# reschedule count; anything but 0 means a pass is leaking staleness
# (forgetting a commit, dirtying state it did not declare).
grep -q 'reschedule: 0 pass(es) on an unmutated DB' LINT_sota.txt
echo "pass-skip gate OK"

echo "==> recovery gate: a clean run must not degrade, retry, or roll back"
# The lint prints one greppable recovery summary; on an unfaulted run every
# counter must be zero (a nonzero here means the recovery machinery fired on
# healthy inputs — a policy bug, not resilience).
grep -q 'recovery: degraded=0 retries=0 rollbacks=0 faults_injected=0 leaked=0' LINT_sota.txt
rm -f LINT_sota.txt
echo "recovery gate OK"

echo "==> chaos gate: every injectable fault must recover with zero leaked state"
# One lint run per CLI-reachable fault site (--list-fault-sites is the
# catalogue). Each run must (a) actually trip the armed site, (b) exit clean
# after retry/rollback, and (c) report leaked=0 — the rolled-back DB was
# fingerprint-identical to its pre-wave self. route.eco needs a mid-run
# netlist mutation the CLI does not stage (tests/test_ft.cpp covers it);
# decide.infer runs with a live engine in the ml-engine chaos gate below.
# One site, one run: must trip, recover, leak nothing — and leave a flight-
# recorder black box (ft::dump_black_box via GNNMLS_FLIGHT_OUT) whose failure
# context names the failing pass (the site's "pass." prefix) and whose event
# tail recorded that pass starting.
chaos_site() {
  local bin="$1" site="$2" out dump pass
  shift 2
  pass="${site%%.*}"
  dump="flight_${site}.json"
  rm -f "${dump}"
  out="$(GNNMLS_FLIGHT_OUT="${dump}" "${bin}" --design maeri16 --strategy sota \
         --inject-flow="${site}" "$@")" \
    || { echo "chaos gate FAILED: ${site} did not recover"; echo "${out}"; exit 1; }
  grep -q 'faults_injected=1' <<<"${out}" \
    || { echo "chaos gate FAILED: ${site} never tripped"; echo "${out}"; exit 1; }
  grep -q 'leaked=0' <<<"${out}" \
    || { echo "chaos gate FAILED: ${site} leaked rollback state"; echo "${out}"; exit 1; }
  [[ -s "${dump}" ]] \
    || { echo "chaos gate FAILED: ${site} left no flight-recorder dump"; exit 1; }
  grep -q "\"pass\":\"${pass}\"" "${dump}" \
    || { echo "chaos gate FAILED: ${site} dump does not name pass '${pass}'"; \
         cat "${dump}"; exit 1; }
  grep -q '"kind":"pass_begin"' "${dump}" \
    || { echo "chaos gate FAILED: ${site} dump has no pass_begin events"; \
         cat "${dump}"; exit 1; }
  rm -f "${dump}"
  echo "chaos OK: ${site} (black box named pass '${pass}')"
}
chaos_sweep() {
  local bin="$1" site
  for site in route.net route.commit sta.run power.estimate pdn.synthesize; do
    chaos_site "${bin}" "${site}"
  done
  for site in dft.insert dft.eco; do
    chaos_site "${bin}" "${site}" --with-dft
  done
  chaos_site "${bin}" check.run --only=route,sta,check
}
chaos_sweep ./build/tools/gnnmls_lint

echo "==> perf smoke: incremental-ECO + per-stage microbenchmarks on MAERI-16PE"
# Exercises the full-route baseline against the incremental ECO repair
# (Router::reroute_nets), the full STA run (TimingGraph::run), the
# per-stage flow ledgers (BM_Flow*Stages/BM_DecideStage export
# route_s/sta_s/... counters),
# the scheduler's skip fast path (BM_PassSkip exports the skip rate),
# the 1-vs-4-thread wave timings (BM_FlowParallel exports pdn_s/faultsim_s
# per thread count) and one IR-drop solve on the MAERI-128 PDN grid
# (BM_IrDropSolve), so BENCH_incremental.json carries stage times run over
# run; the gate is that the cases run to completion, the JSON is for trend
# tracking.
./build/bench/bench_micro \
  --benchmark_filter='BM_RouteAll|BM_RerouteEco|BM_StaFullRun|BM_FlowStages|BM_FlowDftStages|BM_DecideStage|BM_PassSkip|BM_FlowParallel|BM_IrDropSolve|BM_AuditOverhead' \
  --benchmark_out=BENCH_incremental.json --benchmark_out_format=json \
  --benchmark_min_time=0.05

echo "==> perf smoke: sharded negotiated routing thread sweep (BENCH_routing.json)"
# BM_RouteNegotiated/{1,2,4} is the sharded three-phase engine under that
# GNNMLS_THREADS count. It exports nets/s and the post-route overflow
# census, so BENCH_routing.json carries quality next to throughput run over
# run.
./build/bench/bench_micro \
  --benchmark_filter='BM_RouteNegotiated' \
  --benchmark_out=BENCH_routing.json --benchmark_out_format=json \
  --benchmark_min_time=0.05
# Determinism + throughput gate, previously an inline python3 heredoc, now a
# first-class subcommand (gnnmls_report check-routing) so the gate runs on
# python-less runners and its logic is unit-testable C++.
./build/tools/gnnmls_report check-routing BENCH_routing.json

echo "==> perf smoke: ML inference engine (scalar vs batched vs cached, BENCH_ml.json)"
# BM_DecideStage is the double-precision per-graph reference; Batched runs
# the float32 SIMD engine cold (cache cleared every iteration) and Cached
# re-decides against a warm embedding cache, exporting cache_hit_pct. The
# longer min_time stabilizes the scalar baseline on noisy runners — the
# check-ml gate enforces >= 5x cold speedup, warm <= cold, and >= 90% hits.
./build/bench/bench_micro \
  --benchmark_filter='BM_MlGemm|BM_MlBatchedForward|BM_DecideStage' \
  --benchmark_out=BENCH_ml.json --benchmark_out_format=json \
  --benchmark_min_time=0.3
./build/tools/gnnmls_report ingest BENCH_ml.json --ledger PERF_LEDGER.jsonl --label ml-micro
./build/tools/gnnmls_report check-ml BENCH_ml.json

echo "==> ml-engine gate: --strategy gnn decides through the batched SIMD engine"
# The lint stages a small engine and prints one greppable ml-engine line;
# the default path must be the batched engine actually serving paths, and
# --ml-engine=scalar must still select the reference stack.
./build/tools/gnnmls_lint --design maeri16 --strategy gnn | tee LINT_gnn.txt
grep -qE 'ml-engine: path=batched simd=(avx2|scalar) batches=[1-9]' LINT_gnn.txt
grep -q 'recovery: degraded=0 retries=0 rollbacks=0 faults_injected=0 leaked=0' LINT_gnn.txt
rm -f LINT_gnn.txt
./build/tools/gnnmls_lint --design maeri16 --strategy gnn --ml-engine=scalar \
  | grep -q 'ml-engine: path=scalar'
echo "ml-engine gate OK"

echo "==> chaos gate: decide.infer with a live engine degrades to SOTA, no leaks"
# The engine-backed decide pass absorbs an injected inference fault by
# falling back to the SOTA heuristic: the run must complete (exit 0) with
# the degradation declared and zero leaked rollback state.
out="$(./build/tools/gnnmls_lint --design maeri16 --strategy gnn --inject-flow=decide.infer)" \
  || { echo "chaos gate FAILED: decide.infer did not recover"; echo "${out}"; exit 1; }
grep -q 'faults_injected=1' <<<"${out}" \
  || { echo "chaos gate FAILED: decide.infer never tripped"; echo "${out}"; exit 1; }
grep -q 'degraded=1' <<<"${out}" \
  || { echo "chaos gate FAILED: decide.infer did not declare the SOTA fallback"; \
       echo "${out}"; exit 1; }
grep -q 'leaked=0' <<<"${out}" \
  || { echo "chaos gate FAILED: decide.infer leaked rollback state"; echo "${out}"; exit 1; }
echo "chaos OK: decide.infer (degraded to SOTA)"

echo "==> perf smoke: observability primitives (BENCH_obs.json)"
# The always-on instrumentation cost model: a disabled span, a counter add,
# a histogram observe, and a flight-recorder event are all nanosecond-scale;
# the smoke is that they run, the JSON is ingested into the ledger for
# trend tracking.
./build/bench/bench_micro \
  --benchmark_filter='BM_DisabledSpan|BM_CounterAdd|BM_HistogramObserve|BM_RecorderEvent' \
  --benchmark_out=BENCH_obs.json --benchmark_out_format=json \
  --benchmark_min_time=0.05
./build/tools/gnnmls_report ingest BENCH_obs.json --ledger PERF_LEDGER.jsonl --label obs-micro

echo "==> ledger gate: gnnmls_report must flag a synthetic >10% stage regression"
# Self-test of the regression detector with two known records: identical
# records must diff clean (exit 0), a 25% route regression must flip the
# exit code to nonzero. This is the gate that proves the gate can fail.
cat >LEDGER_base.jsonl <<'EOF'
{"schema":1,"kind":"flow","rev":"base","utc":"2026-01-01T00:00:00Z","label":"synthetic","stages":{"route":1.0,"sta":0.5,"check":0.2},"counters":{},"gauges":{},"hists":{},"fingerprint":""}
EOF
cat >LEDGER_regressed.jsonl <<'EOF'
{"schema":1,"kind":"flow","rev":"cur","utc":"2026-01-02T00:00:00Z","label":"synthetic","stages":{"route":1.25,"sta":0.5,"check":0.2},"counters":{},"gauges":{},"hists":{},"fingerprint":""}
EOF
./build/tools/gnnmls_report diff LEDGER_base.jsonl LEDGER_base.jsonl \
  || { echo "ledger gate FAILED: identical records flagged as regressed"; exit 1; }
if ./build/tools/gnnmls_report diff LEDGER_base.jsonl LEDGER_regressed.jsonl; then
  echo "ledger gate FAILED: a 25% route regression was not flagged"; exit 1
fi
rm -f LEDGER_base.jsonl LEDGER_regressed.jsonl
echo "ledger gate OK"

echo "==> determinism gate: state fingerprint identical across GNNMLS_THREADS=1/2/4"
# End-to-end thread-sweep over the full flow (route -> STA -> power): the
# sharded router speculates in parallel but commits serially in a fixed
# order, so the DB fingerprint gnnmls_lint prints must not move with the
# worker count. Any drift here is a scheduling leak into routing results.
fp_sweep=""
for t in 1 2 4; do
  fp="$(GNNMLS_THREADS=${t} ./build/tools/gnnmls_lint --design maeri16 --strategy sota \
        | grep '^state fingerprint: ')"
  echo "GNNMLS_THREADS=${t}: ${fp}"
  [[ -z "${fp_sweep}" ]] && fp_sweep="${fp}"
  [[ "${fp}" == "${fp_sweep}" ]] \
    || { echo "determinism gate FAILED: fingerprint moved at GNNMLS_THREADS=${t}"; exit 1; }
done
echo "determinism gate OK"

echo "==> trace gate: traced lint run emits a loadable Chrome trace"
GNNMLS_TRACE=trace_flow.json ./build/tools/gnnmls_lint --design maeri16 --profile
# flow.wave is new in the span tree: every parallel pass span must nest under
# it (cross-thread context propagation), so its presence is part of the gate.
./build/tools/gnnmls_report check-trace trace_flow.json \
  --require flow.evaluate,flow.route,sta.run,flow.wave

if [[ "${FAST}" == "0" ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy: src/ against compile_commands.json"
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    git ls-files 'src/*.cpp' 'tools/*.cpp' | xargs clang-tidy -p build --quiet
  else
    echo "==> clang-tidy not installed; skipping the static-analysis sweep"
  fi

  echo "==> tsan: -fsanitize=thread build + parallel-wave suites (build-tsan/)"
  # Thread sanitizer over the code that actually runs multi-threaded: the
  # pass-manager/executor suites, the fault-injection recovery loop, the
  # access-audit recorder, and the sharded router's speculative edge tasks,
  # each forced to 4 worker threads so waves really interleave, plus the
  # chaos sweep end to end. (A full ctest run under TSan is ~10x wall
  # clock; these binaries cover every concurrent path.)
  cmake -B build-tsan -S . -DGNNMLS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "${JOBS}" \
    --target test_flow_passes test_ft test_audit test_route test_obs test_ml_engine \
             gnnmls_lint
  # test_obs carries the histogram/flight-recorder concurrent-writer hammers.
  TSAN_OPTIONS=halt_on_error=1 GNNMLS_THREADS=4 ./build-tsan/tests/test_obs
  # test_ml_engine drives the batched forward across Executor worker threads.
  TSAN_OPTIONS=halt_on_error=1 GNNMLS_THREADS=4 ./build-tsan/tests/test_ml_engine
  TSAN_OPTIONS=halt_on_error=1 GNNMLS_THREADS=4 ./build-tsan/tests/test_flow_passes
  TSAN_OPTIONS=halt_on_error=1 GNNMLS_THREADS=4 ./build-tsan/tests/test_ft
  TSAN_OPTIONS=halt_on_error=1 GNNMLS_THREADS=4 ./build-tsan/tests/test_audit
  TSAN_OPTIONS=halt_on_error=1 GNNMLS_THREADS=4 ./build-tsan/tests/test_route
  TSAN_OPTIONS=halt_on_error=1 GNNMLS_THREADS=4 chaos_sweep ./build-tsan/tools/gnnmls_lint

  echo "==> sanitizers: ASan+UBSan build + full test suite (build-asan/)"
  cmake -B build-asan -S . -DGNNMLS_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "${JOBS}"
  # halt_on_error makes any UBSan report fail the run instead of logging past it.
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

  echo "==> chaos gate under sanitizers: rollback paths must be ASan/UBSan-clean"
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    chaos_sweep ./build-asan/tools/gnnmls_lint
fi

echo "==> ci.sh: all gates passed"
