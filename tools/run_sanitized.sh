#!/usr/bin/env bash
# Builds the test suite in a separate tree with AddressSanitizer and
# UBSan enabled (-DMSCCLANG_SANITIZE=ON) and runs the suites that
# exercise the pooled hot paths hardest: the interpreter's send-op
# arena, ring inboxes and pooled per-instant action buckets, the event
# queue's callback slots and the indexed heaps of due producers and
# due shards (IndexedHeap: a stale position index is a wild write
# there), the fault/watchdog abort paths that recycle
# them mid-kernel (Watchdog covers an abort with every send still a
# queued Launch action: the bucket queue and the send arena must be
# freed while flows may still call back), and the
# compiler's shared paths — the plan cache's locked LRU + disk spill
# and the race check's flat access history, checked against its
# reference oracle (RaceChecker|RaceOracle) — plus the workload replay
# engine (Workload|Replay|Slo), which multiplexes
# live executions and recovery retries over one shared fabric, and
# the compiler passes (Schedule|CompileStats|InstrGraph|Lowering|
# Fusion|ChunkDag), whose dense index arrays are where off-by-ones
# hide, and the IR verifier (Verifier), whose interned value ids,
# pooled segment lists and ring-buffer FIFOs are where a
# use-after-reuse would hide, and the shared IR body (IrXml|Xml|
# IrBuilder|Tuner): copies of one plan share a reference-counted flat
# body that readers index without checks, so a dangling body or a
# range the builder failed to check (ranks, ids, peers, dependencies,
# counts, splits, buffer ranges) would surface there, as would
# mscclang_run on the malformed plans of the run_rejects_* ctests,
# and the chunk value algebra (ChunkValue|Program): a value keeps up
# to two runs inline and moves longer run lists to the heap, so a
# copy, move or growth across that switch is where a double free or
# stale read would hide, and the algorithm catalogue (Catalog), which
# builds and verifies every named algorithm through its table's
# function pointers, and the flag parser (Flags), whose bindings
# write through pointers the program's table captured.
# Also registered as the "sanitize" ctest configuration (ctest -C
# sanitize) next to the existing "perf" configuration.
#
# With --chaos-sweep, additionally builds the mscclang_chaos driver in
# the sanitized tree and runs a small deterministic fault-matrix sweep
# twice per machine, diffing the CSV output: any nondeterminism in the
# self-healing path (replan, backoff, quarantine) fails the run. This
# is the `ctest -C chaos` CI gate's heavy half.
#
# With --tsan, builds a third tree with ThreadSanitizer instead
# (-DMSCCLANG_TSAN=ON; TSan cannot link with ASan) and runs the
# suites that still start threads (the simulator and the compiler,
# race check included, are single-threaded): the schedule search's
# and the tuner's sweep workers, each running independent
# simulations (Search, Tuner), and the plan cache's memoized program
# fingerprint under concurrent compiles of one program and the shared
# plan body under concurrent hits of one key (PlanCache).
# Registered as the "tsan" ctest configuration (ctest -C tsan).
#
# Every mode finishes with a flake check: the suites that write
# scratch files and start sweep threads (Determinism, Faults,
# Tuner) rerun five times as concurrent ctest processes (-j8), so
# a test sharing state with another test process fails the run.
#
# Usage: tools/run_sanitized.sh [--chaos-sweep|--tsan] [ctest -R regex]
set -euo pipefail
cd "$(dirname "$0")/.."

CHAOS_SWEEP=0
TSAN=0
if [[ "${1:-}" == "--chaos-sweep" ]]; then
    CHAOS_SWEEP=1
    shift
elif [[ "${1:-}" == "--tsan" ]]; then
    TSAN=1
    shift
fi

if [[ "$TSAN" == "1" ]]; then
    BUILD_DIR="${BUILD_DIR:-build-tsan}"
    SANITIZE_FLAG="-DMSCCLANG_TSAN=ON"
    FILTER="${1:-Search|Tuner|PlanCache}"
else
    BUILD_DIR="${BUILD_DIR:-build-asan}"
    SANITIZE_FLAG="-DMSCCLANG_SANITIZE=ON"
    FILTER="${1:-Faults|Watchdog|Communicator|Interpreter|EventQueue|IndexedHeap|Flow|Recovery|Health|PlanCache|Determinism|RaceChecker|Search|Workload|Replay|Slo|Hierarchical|RaceOracle|Schedule|CompileStats|InstrGraph|Lowering|Fusion|ChunkDag|Verifier|IrXml|Xml|IrBuilder|Tuner|ChunkValue|Program|Catalog|Flags|run_rejects}"
fi

cmake -B "$BUILD_DIR" -S . "$SANITIZE_FLAG" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target test_faults test_interpreter \
    test_sim test_races test_recovery test_plan_cache \
    test_determinism test_search test_workload test_hierarchical \
    test_race_oracle test_tuner test_schedule test_compiler \
    test_instr_graph test_lowering test_verifier test_xml test_chunk \
    test_dsl test_catalog test_flags mscclang_run mscclang_compile \
    -j"$(nproc)"

if [[ "$TSAN" == "1" ]]; then
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
else
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
fi
ctest --test-dir "$BUILD_DIR" -R "$FILTER" --output-on-failure \
    -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" -R 'Determinism|Faults|Tuner' \
    --output-on-failure -j8 --repeat until-fail:5

if [[ "$CHAOS_SWEEP" == "1" ]]; then
    cmake --build "$BUILD_DIR" --target mscclang_chaos -j"$(nproc)"
    CHAOS="$BUILD_DIR/tools/mscclang_chaos"
    TMP="$(mktemp -d)"
    trap 'rm -rf "$TMP"' EXIT
    # One single-node sweep (fallback recovery: no ring survives a
    # per-GPU egress fault) and one two-node NIC sweep (replan
    # recovery: the ring re-forms around the dead NIC), each run
    # twice with the same seed and diffed for bit-identical output.
    sweep() {
        local name="$1"
        shift
        echo "chaos sweep: $name"
        "$CHAOS" "$@" --seed 7 --csv "$TMP/$name.1.csv" > /dev/null
        "$CHAOS" "$@" --seed 7 --csv "$TMP/$name.2.csv" > /dev/null
        diff "$TMP/$name.1.csv" "$TMP/$name.2.csv" \
            || { echo "chaos sweep '$name' is nondeterministic"; exit 1; }
    }
    sweep generic-node --machine generic:1:4 --bytes 1MB --data
    sweep generic-nic --machine generic:2:4 --bytes 1MB \
        --resource 'ib-send[0.3]' --data
    echo "chaos sweeps deterministic"
fi
