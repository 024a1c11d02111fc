/**
 * @file
 * Wall-clock phase accounting for the simulation engines. A single
 * SimProfile instance is threaded (optionally) through the event
 * queue, the flow network, and the interpreter; each component
 * accumulates the host nanoseconds it spends in its phase so a bench
 * can print where a run's wall clock went: event dispatch, per-shard
 * work, or the interpreter's per-rank and merge phases. The
 * simulation runs on one thread, so plain fields suffice. When no
 * profile is installed the hot paths skip the clock reads entirely.
 */

#ifndef MSCCLANG_SIM_PROFILE_H_
#define MSCCLANG_SIM_PROFILE_H_

#include <chrono>
#include <cstdint>

namespace mscclang {

/** Per-phase wall-clock accumulators, in host nanoseconds. */
struct SimProfile
{
    /** Serial event dispatch + producer dispatch (EventQueue). */
    std::int64_t eventQueueNs = 0;
    /** Flow-network runs: per-shard settle, recompute and requeue. */
    std::int64_t flowNetworkNs = 0;
    /** Flow-completion callbacks (restaging interpreter work). */
    std::int64_t flowCallbacksNs = 0;
    /** Interpreter rank-batch per-rank phase. */
    std::int64_t interpParallelNs = 0;
    /** Interpreter rank-batch serial merge phase. */
    std::int64_t interpMergeNs = 0;

    std::uint64_t serialEvents = 0;
    std::uint64_t flowBatches = 0;
    std::uint64_t interpBatches = 0;

    void
    reset()
    {
        *this = SimProfile{};
    }
};

/** Scoped timer adding elapsed host ns to an accumulator on exit. */
class SimProfileTimer
{
  public:
    /** A null accumulator makes the timer (and clock reads) a no-op. */
    explicit SimProfileTimer(std::int64_t *acc) : acc_(acc)
    {
        if (acc_)
            start_ = std::chrono::steady_clock::now();
    }

    ~SimProfileTimer() { stop(); }

    /** Stops early; subsequent stops are no-ops. */
    void
    stop()
    {
        if (!acc_)
            return;
        auto end = std::chrono::steady_clock::now();
        *acc_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     end - start_)
                     .count();
        acc_ = nullptr;
    }

    SimProfileTimer(const SimProfileTimer &) = delete;
    SimProfileTimer &operator=(const SimProfileTimer &) = delete;

  private:
    std::int64_t *acc_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace mscclang

#endif // MSCCLANG_SIM_PROFILE_H_
