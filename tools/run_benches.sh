#!/usr/bin/env bash
# Builds the Release benchmark binaries and refreshes the tracked
# perf records at the repo root:
#   BENCH_sim.json      — simulator hot-path throughput
#   BENCH_compile.json  — compiler cold/warm scaling + replan proxy
#   BENCH_search.json   — schedule-search pareto frontier (smoke)
#   BENCH_workload.json — trace replay availability under a storm
# Both report speedups versus frozen seed baselines (EXPERIMENTS.md)
# and take the fastest of several identical batches, which keeps the
# recorded numbers stable on hosts with bursty co-tenant
# interference.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-release-bench}"
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target sim_throughput compiler_scaling \
    mscclang_search_cli mscclang_replay -j"$(nproc)"

# Sweep the rank axis: rank counts stress the sharded flow network's
# partition fan-out and the interpreter's rank batches. --profile adds
# the wall-clock phase breakdown (event queue / flow network / interp
# per-rank / interp merge) to every row; host_cpus in the JSON records
# the host. The frozen seed and global-recompute baselines inside the
# JSON are unaffected by the sweep arguments.
SIM_RANKS="${SIM_RANKS:-16,64,128}"
"$BUILD_DIR/bench/sim_throughput" --json BENCH_sim.json \
    --ranks "$SIM_RANKS" --profile
echo "wrote $(pwd)/BENCH_sim.json"

# --big-ranks (opt-in: BIG_RANKS=1) extends the compile record with
# verify-on cold/warm cells at 64..1024 ranks for the flat ring and
# the hierarchical allreduce. The 1024-rank ring compile alone costs
# ~10s of seconds, so the default run leaves it off.
if [[ "${BIG_RANKS:-0}" == "1" ]]; then
    "$BUILD_DIR/bench/compiler_scaling" --json BENCH_compile.json \
        --big-ranks
else
    "$BUILD_DIR/bench/compiler_scaling" --json BENCH_compile.json
fi
echo "wrote $(pwd)/BENCH_compile.json"

# The schedule-search smoke gate: searches a compact space that
# contains every hand-tuned explore_allreduce_algos pick and fails if
# any searched window is slower than the hand-tuned baseline at any
# swept size. The JSON records the frontier so its quality is
# tracked alongside the perf records.
"$BUILD_DIR/tools/mscclang_search" --smoke --json BENCH_search.json
echo "wrote $(pwd)/BENCH_search.json"

# The workload availability record: the seeded mixed inference trace
# (3 concurrent streams) replayed over the 16-rank two-node machine
# under a node-boundary link-flap storm, healing on versus off
# against the same fault-free baseline. Deterministic — the JSON is
# byte-identical on every run (tools/mscclang_replay --smoke gates
# that), so a diff of this record is always a real behaviour change.
"$BUILD_DIR/tools/mscclang_replay" --machine generic:2:8 \
    --workload mixed --storm flap --healing both \
    --json BENCH_workload.json > /dev/null
echo "wrote $(pwd)/BENCH_workload.json"
