/**
 * @file
 * Fundamental vocabulary types shared by the DSL, compiler, IR and
 * runtime: buffer names, communication protocols and reduction ops.
 */

#ifndef MSCCLANG_COMMON_TYPES_H_
#define MSCCLANG_COMMON_TYPES_H_

#include <cstdint>
#include <optional>
#include <string>

namespace mscclang {

/** A GPU's global rank (node * gpusPerNode + local index). */
using Rank = int;

/**
 * The three named buffers every rank exposes to a program (paper
 * §3.1): Input holds the collective's input data, Output is where the
 * postcondition is checked, Scratch is uninitialized temporary space.
 */
enum class BufferKind : std::uint8_t { Input = 0, Output = 1, Scratch = 2 };

/** Short name used in IR dumps: "i", "o", "s". */
const char *bufferKindName(BufferKind kind);

/**
 * NCCL's three communication protocols (paper §6.1): Simple has the
 * highest bandwidth and latency, LL the lowest of both, LL128 sits in
 * between. The protocol fixes the remote FIFO buffer size and slot
 * count and the effective wire efficiency. Direct models SCCL's
 * point-to-point protocol (paper §7.5): a source-to-destination copy
 * with no intermediate FIFO buffers, full wire efficiency and less
 * per-message synchronization than Simple.
 */
enum class Protocol { Simple = 0, LL = 1, LL128 = 2, Direct = 3 };

const char *protocolName(Protocol proto);

/** The protocol protocolName() spells @p name, if any. */
std::optional<Protocol> protocolFromName(const std::string &name);

/**
 * FIFO slots per connection (paper: 1 <= s <= 8). The single source
 * of truth shared by the runtime interpreter's ring inboxes
 * (protocolParams) and the verifier's deadlock model (VerifyOptions):
 * if the two disagreed, a program the verifier certifies
 * deadlock-free could wedge on the runtime. Guarded by
 * Faults.SlotContractSingleSourceOfTruth in tests/test_faults.cpp.
 */
constexpr int kFifoSlotsPerConnection = 8;

/** Pointwise reduction applied by reduce instructions. */
enum class ReduceOp { Sum = 0, Prod = 1, Max = 2, Min = 3 };

const char *reduceOpName(ReduceOp op);

} // namespace mscclang

#endif // MSCCLANG_COMMON_TYPES_H_
