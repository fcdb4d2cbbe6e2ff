#!/usr/bin/env sh
# Race check for the host-parallel interpreter: build everything with
# ThreadSanitizer and run the tier-1 test suite with 8 interpreter
# threads forced via the environment. Any data race in the phase
# scheduler, the worker pool, or the per-VPP accounting shows up here.
#
# A second pass soaks the recovery machinery: the same TSan build runs
# the fault-, interpreter-, and equivalence-focused tests with the
# environment fault injector armed (DESIGN.md section 4.6), so every
# retransmit/relaunch/rollback path executes under the race detector.
# The soak is scoped to tests that tolerate perturbed timing; suites
# that assert exact DRAM-traffic or timing budgets stay fault-free.
#
# A third pass rebuilds with AddressSanitizer + UBSan (TSan is
# mutually exclusive with ASan) and runs the decoder hardening and
# serving suites: the fuzz tests push random and bit-flipped scripts
# through decode, so any out-of-bounds dereference a validation gap
# would permit becomes a hard failure here. The pass finishes with
# the serving-overload soak (offered load 2x capacity AND a 15%
# transient fault rate) and the fleet-failover soak (a wedged replica
# AND a 10% transient rate on a survivor): both benches exit nonzero
# unless the server survives with fully reconciled request accounting.
# It continues with a crash-point explorer smoke (8 host-crash
# boundaries swept under ASan, each recovering the durable fleet from
# simulated stable storage, DESIGN.md section 4.10) and closes with
# the net-fault soak: a mid-trace link partition layered with 10%
# seeded message loss, run twice -- the runs must agree
# field-for-field and lose no admitted High request (section 4.12).
#
# A fourth pass rebuilds with gcov instrumentation (-DVPPS_COVERAGE)
# and gates line coverage of the observability layer (src/obs), the
# topology/collective layer (src/gpusim/topology*), the fleet
# network layer (src/serve/net*), and the shared fault-point explorer
# (src/serve/fault_explorer*): each must stay >= 90% covered by its
# suites. Uses gcovr when available, else falls back to parsing
# gcov itself.
#
# Usage: tools/check.sh [--tier1] [build-dir]
#        (default build-dir: build-tsan; the ASan pass uses
#        <build-dir>-asan, the coverage pass <build-dir>-cov)
#
# --tier1 is the quick pre-commit mode: configure and build the TSan
# tree once, run only the tier1-labelled tests, and skip the fault
# soak, the ASan rebuild, the bench soaks, and the coverage gate.
set -eu

cd "$(dirname "$0")/.."
TIER1_ONLY=0
if [ "${1:-}" = "--tier1" ]; then
    TIER1_ONLY=1
    shift
fi
BUILD_DIR="${1:-build-tsan}"
ASAN_DIR="${BUILD_DIR}-asan"
COV_DIR="${BUILD_DIR}-cov"

cmake -B "$BUILD_DIR" -S . -DVPPS_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)"

VPPS_HOST_THREADS=8 ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -L tier1

# Data-parallel training smoke under TSan: the driver, the shared
# script cache, and the 8-thread interpreter all race-checked in one
# functional run (the bench exits nonzero on any bitwise divergence).
echo "== dist-training smoke (TSan build, 8 host threads) =="
"$BUILD_DIR"/bench/dist_training --smoke --threads 8

# Partition-tolerance smoke under TSan: the link-down sweep, the
# mid-trace partition episode, and both promotion ships exercise the
# networked fleet event loop with 8 interpreter threads (the bench
# exits nonzero on any lost High admit or bitwise divergence).
echo "== partition-tolerance smoke (TSan build, 8 host threads) =="
"$BUILD_DIR"/bench/partition_tolerance --smoke --threads 8

if [ "$TIER1_ONLY" = 1 ]; then
    echo "== --tier1: quick mode done, skipping soak/ASan/coverage =="
    exit 0
fi

echo "== fault-injection soak (VPPS_FAULT_RATE=0.02, seed 7) =="
VPPS_HOST_THREADS=8 VPPS_FAULT_SEED=7 VPPS_FAULT_RATE=0.02 \
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
          -R 'FaultRecovery|MalformedScript|Interpreter\.|Equivalence'

echo "== ASan/UBSan decoder-hardening + serving pass =="
cmake -B "$ASAN_DIR" -S . -DVPPS_ASAN=ON -DVPPS_UBSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" -j"$(nproc)"
ctest --test-dir "$ASAN_DIR" --output-on-failure \
      -R 'DecoderFuzz|MalformedScript|Serving\.|FaultRecovery'

echo "== serving-overload soak (2x capacity, fault rate 0.15) =="
"$ASAN_DIR"/bench/serving_overload --faults

echo "== fleet-failover soak (device loss + fault rate 0.10) =="
"$ASAN_DIR"/bench/fleet_failover --faults

echo "== crash-point explorer smoke (8 boundaries under ASan) =="
"$ASAN_DIR"/tools/crash_explore --points 8

echo "== net-fault soak (mid-trace partition + 10% seeded loss) =="
"$ASAN_DIR"/bench/partition_tolerance --faults

echo "== coverage gate (src/obs, src/gpusim/topology, src/serve/net, src/serve/fault_explorer >= 90%) =="
cmake -B "$COV_DIR" -S . -DVPPS_COVERAGE=ON \
      -DCMAKE_BUILD_TYPE=Debug
cmake --build "$COV_DIR" -j"$(nproc)" --target vpps_tests
ctest --test-dir "$COV_DIR" --output-on-failure \
      -R 'TraceUnit|GoldenTrace|MetricsUnit|MetricsReconcile|MetricsSoak|Topology|AllReduceCost|CollectiveEquivalence|CollectiveCostExtras|TopologyFuzz|DistDeterminism|PartitionTolerance|GoldenNetTrace|FleetFailover|FaultSweep|CrashRecovery'
if command -v gcovr >/dev/null 2>&1; then
    gcovr --root . --filter 'src/obs/' --print-summary \
          --fail-under-line 90 "$COV_DIR"
    gcovr --root . --filter 'src/gpusim/topology' --print-summary \
          --fail-under-line 90 "$COV_DIR"
    gcovr --root . --filter 'src/serve/net' --print-summary \
          --fail-under-line 90 "$COV_DIR"
    gcovr --root . --filter 'src/serve/fault_explorer' \
          --print-summary --fail-under-line 90 "$COV_DIR"
else
    # CMake names the data files <src>.cpp.gcda, which gcov's -o
    # lookup does not resolve; hand it the .gcda files directly.
    # One gated subtree per awk pass.
    for subtree in obs gpusim serve fault_explorer; do
        case "$subtree" in
            obs) match="src/obs/"
                 files="$COV_DIR/src/CMakeFiles/vpps_lib.dir/obs/*.cpp.gcda" ;;
            gpusim) match="src/gpusim/topology"
                 files="$COV_DIR/src/CMakeFiles/vpps_lib.dir/gpusim/topology*.cpp.gcda" ;;
            serve) match="src/serve/net"
                 files="$COV_DIR/src/CMakeFiles/vpps_lib.dir/serve/net*.cpp.gcda" ;;
            fault_explorer) match="src/serve/fault_explorer"
                 files="$COV_DIR/src/CMakeFiles/vpps_lib.dir/serve/fault_explorer*.cpp.gcda" ;;
        esac
        gcov -n $files | awk -v match_path="$match" '
        /^File / { keep = index($0, match_path) > 0 }
        keep && /^Lines executed:/ {
            split($0, parts, ":"); split(parts[2], a, "% of ")
            covered += a[1] / 100.0 * a[2]; total += a[2]; keep = 0
        }
        END {
            if (total == 0) {
                print "coverage: no gcov data found"; exit 1
            }
            pct = 100.0 * covered / total
            printf "%s line coverage: %.2f%% of %d lines\n", \
                   match_path, pct, total
            exit pct >= 90.0 ? 0 : 1
        }'
    done
fi
