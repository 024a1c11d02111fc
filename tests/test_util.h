/**
 * @file
 * Shared helpers for the test suite: compile + functional-execute a
 * program on a topology and compare its output buffers against the
 * postcondition-derived oracle.
 */

#ifndef MSCCLANG_TESTS_TEST_UTIL_H_
#define MSCCLANG_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compiler/compiler.h"
#include "dsl/program.h"
#include "runtime/communicator.h"
#include "runtime/reference.h"
#include "topology/topology.h"

namespace mscclang::testing {

/**
 * A scratch file path under the gtest temp dir that is unique to the
 * running test and process. ctest runs every discovered test as its
 * own concurrent process, so a fixed file name would be shared by
 * tests running at the same time. Call from inside a test body.
 */
inline std::string
tempPath(const std::string &tag)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "mscclang_" + info->test_suite_name() +
        "." + info->name() + "_" + std::to_string(::getpid()) + "_" + tag;
}

/** 64-bit FNV-1a hash of @p s: the goldens' fingerprint of IR XML. */
inline std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Deterministically fills every rank's input buffer. */
inline std::vector<std::vector<float>>
fillInputs(Communicator &comm, const IrProgram &ir,
           std::uint64_t bytes_per_rank, std::uint64_t seed = 7)
{
    comm.store().configure(ir, bytes_per_rank);
    Rng rng(seed);
    std::vector<std::vector<float>> inputs(ir.numRanks);
    for (int r = 0; r < ir.numRanks; r++) {
        std::vector<float> &buf = comm.store().input(r);
        for (float &v : buf)
            v = rng.nextSignedFloat();
        inputs[r] = buf;
    }
    return inputs;
}

/**
 * Compiles @p program, runs it in data mode on @p topology with
 * @p bytes_per_rank input bytes, and returns the first oracle
 * mismatch (empty string on success).
 */
inline std::string
runAndCheck(const Topology &topology, const Program &program,
            std::uint64_t bytes_per_rank,
            const CompileOptions &copts = {})
{
    Compiled compiled = compileProgram(program, copts);
    Communicator comm(topology);
    std::vector<std::vector<float>> inputs =
        fillInputs(comm, compiled.ir, bytes_per_rank);

    RunOptions run;
    run.bytes = bytes_per_rank;
    run.dataMode = true;
    comm.runProgram(compiled.ir, run);

    std::vector<std::vector<float>> outputs(compiled.ir.numRanks);
    for (int r = 0; r < compiled.ir.numRanks; r++) {
        outputs[r] = comm.store().buffer(r, BufferKind::Output,
                                         compiled.ir.inPlace);
    }
    return compareToReference(program.collective(), inputs, outputs,
                              program.options().reduceOp);
}

/** Runs one or more pre-compiled kernels and checks the oracle. */
inline std::string
runIrsAndCheck(const Topology &topology,
               const std::vector<const IrProgram *> &irs,
               const Collective &collective,
               std::uint64_t bytes_per_rank)
{
    Communicator comm(topology);
    std::vector<std::vector<float>> inputs =
        fillInputs(comm, *irs.front(), bytes_per_rank);
    for (const IrProgram *ir : irs)
        comm.store().configure(*ir, bytes_per_rank);

    RunOptions run;
    run.bytes = bytes_per_rank;
    run.dataMode = true;
    comm.runComposed(irs, run);

    const IrProgram &last = *irs.back();
    std::vector<std::vector<float>> outputs(last.numRanks);
    for (int r = 0; r < last.numRanks; r++) {
        outputs[r] = comm.store().buffer(r, BufferKind::Output,
                                         last.inPlace);
    }
    return compareToReference(collective, inputs, outputs,
                              last.reduceOp);
}

} // namespace mscclang::testing

#endif // MSCCLANG_TESTS_TEST_UTIL_H_
