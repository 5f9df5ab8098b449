#!/usr/bin/env bash
# One-command static-analysis gate for the gpufreq repo. Runs, in order:
#
#   * the custom determinism/hygiene linter (tools/lint/gpufreq_lint.py)
#     plus its fixture self-check,
#   * the architecture analyzer (tools/analyze/gpufreq_arch.py): include
#     layering vs the declared module DAG and include-cycle detection
#     (header self-containment is compiled by the Werror build below,
#     whose ALL target includes every gpufreq_selfcontain_<module> object
#     library),
#   * shellcheck over the repo's shell scripts (skipped with a warning
#     when shellcheck is not installed),
#   * clang-tidy over the library sources. Locally a missing clang-tidy
#     is a warning (the container toolchain is gcc-only); under CI=1 it
#     is a hard failure — the workflow pins an install, so absence there
#     means the gate silently lost a stage,
#   * a warnings-as-errors Release build (GPUFREQ_WERROR=ON, which
#     includes -Wconversion -Wdouble-promotion -Wextra-semi -Wvla, and
#     -Wthread-safety on clang),
#   * the hot-path purity proof (tools/analyze/gpufreq_hotpath.py):
#     disassembles the Werror archives and proves no GPUFREQ_HOT root
#     reaches an alloc/throw/lock/IO sink (DESIGN.md §8), plus the
#     known-bad fixture self-check,
#   * the resource-bound proof (tools/analyze/gpufreq_bounds.py): joins
#     the same archives with their -fstack-usage data and proves every
#     GPUFREQ_HOT root within its worst-case stack budget, recursion-free,
#     and every writable global vouched for (DESIGN.md §8), plus its
#     fixture self-check,
#   * the full ctest suite under AddressSanitizer+UBSan
#     (GPUFREQ_SANITIZE="address;undefined") with debug invariant checks
#     (GPUFREQ_DCHECK / GPUFREQ_CHECK_FINITE) compiled in,
#   * the concurrency-sensitive test subset (thread pool, trainer,
#     integration/predict sweep, and the serve layer: snapshot hot-swap
#     and the batched sweep service) under ThreadSanitizer
#     (GPUFREQ_SANITIZE=thread) with DCHECKs on.
#
# Stage banners are numbered by the stage() helper at run time — never
# hard-code "stage N" in a banner, it drifts as stages land.
#
# The lint, arch, hotpath, and bounds stages drop machine-readable reports
# (lint_report.json, arch_report.json, hotpath_report.json,
# bounds_report.json) into $SA_BUILD_ROOT; CI uploads them as one
# analysis-reports artifact.
#
# Any stage failing fails the gate. Build trees live under build-sa/ so the
# default build/ directory is never polluted.
#
# Usage:
#   tools/run_static_analysis.sh                       # full gate
#   SA_SKIP_SANITIZE=1 tools/run_static_analysis.sh    # skip sanitizer legs
#   SA_BUILD_ROOT=/tmp/sa tools/run_static_analysis.sh
#   GPUFREQ_NUM_THREADS=4 tools/run_static_analysis.sh # build/ctest -j 4
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_ROOT="${SA_BUILD_ROOT:-$ROOT/build-sa}"
# GPUFREQ_NUM_THREADS doubles as the build/ctest parallelism knob so the
# gate respects the same resource limit as the library's thread pool.
JOBS="${GPUFREQ_NUM_THREADS:-$(nproc 2>/dev/null || echo 4)}"
case "$JOBS" in
  ''|*[!0-9]*|0) JOBS="$(nproc 2>/dev/null || echo 4)" ;;
esac
FAILED=0

# Self-numbering banners: stage() opens the next numbered stage, substage()
# continues the current one (fixture self-checks, report paths).
TOTAL_STAGES=9
STAGE=0
stage() {
  STAGE=$((STAGE + 1))
  printf '\n== stage %d/%d: %s ==\n' "$STAGE" "$TOTAL_STAGES" "$*"
}
substage() { printf '\n== stage %d/%d: %s ==\n' "$STAGE" "$TOTAL_STAGES" "$*"; }

# ------------------------------------------------------------------- lint
stage "gpufreq_lint (determinism & hygiene rules)"
mkdir -p "$BUILD_ROOT"
python3 "$ROOT/tools/lint/gpufreq_lint.py" --json "$BUILD_ROOT/lint_report.json" \
  || FAILED=1

substage "lint self-check (fixtures must trip every rule)"
if python3 "$ROOT/tools/lint/gpufreq_lint.py" --quiet \
    "$ROOT/tools/lint/fixtures/bad_example.cpp" \
    "$ROOT/tools/lint/fixtures/bad_header.hpp" \
    "$ROOT/tools/lint/fixtures/bad_simd.cpp" > /dev/null 2>&1; then
  echo "error: linter reported the known-bad fixtures as clean" >&2
  FAILED=1
else
  echo "fixtures correctly rejected"
fi

if [[ "$FAILED" -ne 0 ]]; then
  echo "static analysis gate: FAILED at lint stage" >&2
  exit 1
fi

# ---------------------------------------------------- architecture checks
stage "gpufreq_arch (layering, cycles)"
python3 "$ROOT/tools/analyze/gpufreq_arch.py" --check layering,cycles \
  --json "$BUILD_ROOT/arch_report.json" || FAILED=1

substage "arch self-check (fixture trees must be rejected)"
python3 "$ROOT/tests/test_arch_selfcheck.py" > /dev/null || FAILED=1
echo "arch report: $BUILD_ROOT/arch_report.json"

if [[ "$FAILED" -ne 0 ]]; then
  echo "static analysis gate: FAILED at architecture stage" >&2
  exit 1
fi

# ------------------------------------------------------------- shellcheck
stage "shellcheck"
if command -v shellcheck > /dev/null 2>&1; then
  mapfile -t SCRIPTS < <(find "$ROOT/tools" -name '*.sh' | sort)
  shellcheck "${SCRIPTS[@]}" || FAILED=1
else
  echo "warning: shellcheck not found on PATH; skipping" >&2
fi

if [[ "$FAILED" -ne 0 ]]; then
  echo "static analysis gate: FAILED at shellcheck stage" >&2
  exit 1
fi

# ------------------------------------------------------------- clang-tidy
stage "clang-tidy"
if command -v clang-tidy > /dev/null 2>&1; then
  TIDY_BUILD="$BUILD_ROOT/tidy"
  cmake -B "$TIDY_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DGPUFREQ_BUILD_BENCH=OFF -DGPUFREQ_BUILD_EXAMPLES=OFF > /dev/null
  mapfile -t TIDY_SOURCES < <(find "$ROOT/src" -name '*.cpp' | sort)
  clang-tidy -p "$TIDY_BUILD" --quiet "${TIDY_SOURCES[@]}" || FAILED=1
elif [[ "${CI:-0}" == "1" || "${CI:-false}" == "true" ]]; then
  # In CI the workflow installs clang-tidy on every matrix leg; if it is
  # missing the gate would silently drop a stage, so fail loudly instead
  # of warning (locally the container toolchain is gcc-only, so a skip
  # with a warning is the right degradation there).
  echo "error: CI=1 but clang-tidy is not on PATH — the tidy stage is mandatory in CI" >&2
  FAILED=1
else
  echo "warning: clang-tidy not found on PATH; skipping (config: .clang-tidy)" >&2
fi

if [[ "$FAILED" -ne 0 ]]; then
  echo "static analysis gate: FAILED at clang-tidy stage" >&2
  exit 1
fi

# ----------------------------------------------------------- Werror build
# Also the header self-containment check: every public header compiles
# alone, with the full warning set, in its gpufreq_selfcontain_<module>
# target.
stage "warnings-as-errors Release build (+ header self-containment)"
WERROR_BUILD="$BUILD_ROOT/werror"
cmake -B "$WERROR_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DGPUFREQ_WERROR=ON > /dev/null
cmake --build "$WERROR_BUILD" -j "$JOBS"

# --------------------------------------------------- hot-path purity proof
# Reuses the Werror archives: GPUFREQ_WERROR only adds -Werror on top of
# the same Release codegen, so the disassembly the analyzer walks is the
# shipped configuration.
stage "gpufreq_hotpath (GPUFREQ_HOT zero-alloc/lock/throw proof)"
python3 "$ROOT/tools/analyze/gpufreq_hotpath.py" \
  --build-dir "$WERROR_BUILD" \
  --allowlist "$ROOT/tools/analyze/hotpath_allow.txt" \
  --json "$BUILD_ROOT/hotpath_report.json" || FAILED=1

substage "hotpath self-check (known-bad fixtures must be rejected)"
python3 "$ROOT/tests/test_hotpath_selfcheck.py" > /dev/null || FAILED=1
echo "hotpath report: $BUILD_ROOT/hotpath_report.json"

if [[ "$FAILED" -ne 0 ]]; then
  echo "static analysis gate: FAILED at hot-path purity stage" >&2
  exit 1
fi

# -------------------------------------------------- resource-bound proof
# Same Werror archives again, joined with the .su stack-usage data their
# build emitted (GPUFREQ_STACK_USAGE defaults ON): worst-case stack depth
# per GPUFREQ_HOT root, recursion-freedom, and the writable-global audit.
stage "gpufreq_bounds (stack budgets, recursion-freedom, global audit)"
python3 "$ROOT/tools/analyze/gpufreq_bounds.py" \
  --build-dir "$WERROR_BUILD" \
  --allowlist "$ROOT/tools/analyze/bounds_allow.txt" \
  --json "$BUILD_ROOT/bounds_report.json" || FAILED=1

substage "bounds self-check (known-bad fixtures must be rejected)"
python3 "$ROOT/tests/test_bounds_selfcheck.py" > /dev/null || FAILED=1
echo "bounds report: $BUILD_ROOT/bounds_report.json"

if [[ "$FAILED" -ne 0 ]]; then
  echo "static analysis gate: FAILED at resource-bound stage" >&2
  exit 1
fi

# ---------------------------------------------- ctest under ASan + UBSan
if [[ "${SA_SKIP_SANITIZE:-0}" == "1" ]]; then
  stage "sanitized test suite (skipped: SA_SKIP_SANITIZE=1)"
else
  stage "ctest under GPUFREQ_SANITIZE=address;undefined"
  SAN_BUILD="$BUILD_ROOT/asan-ubsan"
  cmake -B "$SAN_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DGPUFREQ_SANITIZE=address;undefined" \
    -DCMAKE_CXX_FLAGS=-DGPUFREQ_ENABLE_DCHECKS \
    -DGPUFREQ_BUILD_BENCH=OFF -DGPUFREQ_BUILD_EXAMPLES=OFF > /dev/null
  cmake --build "$SAN_BUILD" -j "$JOBS"
  (cd "$SAN_BUILD" && ctest --output-on-failure -j "$JOBS")
fi

# ---------------------------------- TSan lane: concurrency-sensitive tests
if [[ "${SA_SKIP_SANITIZE:-0}" == "1" ]]; then
  stage "TSan lane (skipped: SA_SKIP_SANITIZE=1)"
else
  stage "thread pool / trainer / predict sweep / serve under GPUFREQ_SANITIZE=thread"
  TSAN_BUILD="$BUILD_ROOT/tsan"
  cmake -B "$TSAN_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGPUFREQ_SANITIZE=thread \
    -DCMAKE_CXX_FLAGS=-DGPUFREQ_ENABLE_DCHECKS \
    -DGPUFREQ_BUILD_BENCH=OFF -DGPUFREQ_BUILD_EXAMPLES=OFF > /dev/null
  cmake --build "$TSAN_BUILD" -j "$JOBS" \
    --target test_util_thread_pool test_nn_trainer_serialize test_integration_pipeline \
    test_serve_snapshot test_serve_service test_serve_cache
  # Run with >1 pool thread even on 1-core CI so lock discipline is
  # actually exercised; the suites are chosen because they drive
  # parallel_for, Trainer::fit, the parallel predict sweep, and the serve
  # layer's concurrent submit / background drain / snapshot hot-swap paths
  # plus the sweep-curve cache racing a publisher thread (test_serve_cache's
  # EpochInvalidationRacesConcurrentHotSwap) and the sharded parallel drain.
  (cd "$TSAN_BUILD" && GPUFREQ_NUM_THREADS=4 ctest --output-on-failure -j 1 \
    -R '^(ThreadPoolTest|Trainer|Serialize|Scaler|Integration|Serve|SweepCache)')
fi

printf '\n== static analysis gate: PASSED ==\n'
