#!/bin/sh
# Reproduce every result in EXPERIMENTS.md from scratch.
#
# Usage: scripts/reproduce.sh [fast] [tsan] [asan]
#   fast  — run the experiment binaries on ~6x shorter traces.
#   tsan  — additionally build with -DSIDEWINDER_SANITIZE=thread and
#           run the parallel sweep engine's tests (sim_sweep_test,
#           support_thread_pool_test) plus the ExecutionPlan tests
#           (il_plan_test, hub_plan_property_test), the
#           block-execution tests (hub_block_test — pushBlock runs
#           under the same engine mutex the per-sample path takes),
#           and the fleet tests (sim_fleet_test — shard workers
#           racing on the shared plan cache is exactly where a data
#           race would hide), and the live-reconfiguration tests
#           (hub_reconfig_test — staging in the shadow slot while
#           the wave loop executes the live plans crosses the same
#           engine mutex), and the placer tests (hub_placer_test —
#           place() is documented const-safe for concurrent callers,
#           and the test drives it from 8 threads at once) under
#           ThreadSanitizer before the normal run. SW_TSAN=1 enables
#           the same.
#   asan  — additionally build with
#           -DSIDEWINDER_SANITIZE=address,undefined and run the
#           fault-tolerance tests (transport_reliable_test,
#           hub_supervision_test, sim_faults_test) and the
#           ExecutionPlan tests (il_plan_test,
#           hub_plan_property_test) under ASan/UBSan: the fault
#           injectors exercise the decoder's resync and the
#           supervisor's re-push paths with deliberately mangled
#           bytes, and the plan tests drive the engine's cached
#           input-pointer wave loop, exactly where memory bugs would
#           hide. The block-execution tests (hub_block_test) and the
#           Q15 fixed-point primitive tests (dsp_q15_test) also run
#           here: the block path writes through raw lane pointers
#           with per-node strides, and the Q15 kernels are exactly
#           where integer overflow UB would hide. The fleet tests
#           (sim_fleet_test) run here too: tenants share one plan
#           instance, so a lifetime bug in the cache would surface as
#           a use-after-free under churn. The live-reconfiguration
#           tests (hub_reconfig_test) run here too: delta splicing
#           resolves 8-byte hash references into live node pointers
#           and rollback tears the staged half down, exactly where a
#           dangling reference would hide. The placer tests
#           (hub_placer_test) run here too: the fuzzed-workload
#           rounds stress the rip-up/repair bookkeeping, exactly
#           where an out-of-bounds ledger index would hide. The
#           value-range soundness gate (il_range_test) runs under
#           both sanitizers: the Q15
#           saturation-event counters are compiled in there (the
#           sanitize trees define SIDEWINDER_Q15_COUNTERS), so the
#           proof-vs-execution cross-check actually bites.
#           The transport codec tests (transport_test) run here
#           too: the frame decoder rescans failed candidates in place
#           in one contiguous buffer, exactly where an off-by-one
#           read would hide. The support tests (support_test) run
#           here too: the in-repo MT19937-64 twist indexes a fixed
#           state array and RingBuffer::append splits a block into
#           two copies at the wrap point, exactly where an
#           out-of-bounds index would hide. The audio classifier
#           golden (apps_classify_test) runs here too: the siren,
#           music and phrase classifiers reuse one frame, spectrum and
#           magnitude buffer per call and index resolved band bin
#           ranges, exactly where a stale size or an off-by-one bin
#           would hide. UBSan reports are fatal here
#           (UBSAN_OPTIONS=halt_on_error=1), so a report fails the
#           run instead of scrolling past.
#           SW_ASAN=1 enables the same.
set -e
cd "$(dirname "$0")/.."

for arg in "$@"; do
    [ "$arg" = "fast" ] && export SW_FAST=1
    [ "$arg" = "tsan" ] && SW_TSAN=1
    [ "$arg" = "asan" ] && SW_ASAN=1
done

if [ "${SW_TSAN:-0}" = "1" ]; then
    # TSan is incompatible with ASan, so it gets its own tree. Only
    # the concurrency-bearing tests run here; the full (uninstrumented)
    # suite still runs below.
    cmake -B build-tsan -G Ninja -DSIDEWINDER_SANITIZE=thread
    cmake --build build-tsan --target sim_sweep_test \
        support_thread_pool_test il_plan_test hub_plan_property_test \
        hub_block_test sim_fleet_test il_range_test hub_reconfig_test \
        hub_placer_test
    echo "== ThreadSanitizer: parallel sweep engine =="
    build-tsan/tests/support_thread_pool_test
    build-tsan/tests/sim_sweep_test
    echo "== ThreadSanitizer: execution plan =="
    build-tsan/tests/il_plan_test
    build-tsan/tests/hub_plan_property_test
    echo "== ThreadSanitizer: block execution =="
    build-tsan/tests/hub_block_test
    echo "== ThreadSanitizer: fleet runtime + shared plan cache =="
    build-tsan/tests/sim_fleet_test
    echo "== ThreadSanitizer: value-range soundness gate =="
    build-tsan/tests/il_range_test
    echo "== ThreadSanitizer: live reconfiguration =="
    build-tsan/tests/hub_reconfig_test
    echo "== ThreadSanitizer: negotiated-congestion placer =="
    build-tsan/tests/hub_placer_test
fi

if [ "${SW_ASAN:-0}" = "1" ]; then
    cmake -B build-asan -G Ninja \
        -DSIDEWINDER_SANITIZE=address,undefined
    cmake --build build-asan --target transport_test \
        transport_reliable_test hub_supervision_test sim_faults_test \
        il_plan_test hub_plan_property_test hub_block_test \
        dsp_q15_test sim_fleet_test il_range_test hub_reconfig_test \
        hub_placer_test support_test apps_classify_test
    export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
    echo "== ASan/UBSan: fault-tolerance stack =="
    build-asan/tests/transport_test
    build-asan/tests/transport_reliable_test
    build-asan/tests/hub_supervision_test
    build-asan/tests/sim_faults_test
    echo "== ASan/UBSan: execution plan =="
    build-asan/tests/il_plan_test
    build-asan/tests/hub_plan_property_test
    echo "== ASan/UBSan: block execution + Q15 =="
    build-asan/tests/hub_block_test
    build-asan/tests/dsp_q15_test
    echo "== ASan/UBSan: fleet runtime + shared plan cache =="
    build-asan/tests/sim_fleet_test
    echo "== ASan/UBSan: value-range soundness gate =="
    build-asan/tests/il_range_test
    echo "== ASan/UBSan: live reconfiguration =="
    build-asan/tests/hub_reconfig_test
    echo "== ASan/UBSan: negotiated-congestion placer =="
    build-asan/tests/hub_placer_test
    echo "== ASan/UBSan: support (MT19937-64, Bernoulli cut) =="
    build-asan/tests/support_test
    echo "== ASan/UBSan: audio classifiers (reused buffers) =="
    build-asan/tests/apps_classify_test
fi

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

# The shipped wake conditions must pass the static analyzer under the
# strictest setting (also registered as the swlint_all_apps ctest).
echo "== swlint: built-in wake conditions =="
build/tools/swlint --all-apps --Werror

{
    for b in build/bench/*; do
        if [ -f "$b" ] && [ -x "$b" ]; then
            echo
            echo "============================================================"
            echo "== $(basename "$b")"
            echo "============================================================"
            case "$(basename "$b")" in
            bench_dsp_micro)
                # Also capture JSON so the budget gate below can
                # compare this run against scripts/bench_budgets.json.
                "$b" --benchmark_out=bench_check.json \
                    --benchmark_out_format=json
                ;;
            *)
                "$b"
                ;;
            esac
        fi
    done
} 2>&1 | tee bench_output.txt

# Fail the reproduction if a tracked benchmark regressed >20% against
# its recorded baseline, a documented speedup ratio fell below its
# floor, the fleet run broke its cache-hit-rate / memory-per-device
# budgets or determinism flag (docs/performance.md), the
# reconfiguration run broke its delta-wire-cost / blind-window
# budgets (docs/fault-model.md, "Live reconfiguration"), or the
# placement run let the negotiated placer spend more than the greedy
# ladder, rescue nothing, or diverge across thread counts
# (docs/placement.md).
echo "== benchmark regression gate =="
python3 scripts/check_bench_regression.py bench_check.json \
    --fleet BENCH_fleet.json --reconfig BENCH_reconfig.json \
    --placement BENCH_placement.json
