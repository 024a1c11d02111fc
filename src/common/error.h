/**
 * @file
 * Error hierarchy for the MSCCLang reproduction.
 *
 * The system distinguishes errors in the four stages a collective goes
 * through: authoring a program in the DSL (ProgramError), compiling it
 * (CompileError), statically verifying it (VerificationError) and
 * executing it in the runtime (RuntimeError). All derive from Error so
 * callers can catch the whole family at once.
 */

#ifndef MSCCLANG_COMMON_ERROR_H_
#define MSCCLANG_COMMON_ERROR_H_

#include <stdexcept>
#include <string>

namespace mscclang {

/** Base class for all errors raised by the library. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &what) : std::runtime_error(what) {}
};

/**
 * A user error in a DSL program: stale chunk references, reads of
 * uninitialized chunks, out-of-bounds buffer indices, and similar
 * violations of the chunk-oriented programming rules (paper §3.3).
 */
class ProgramError : public Error
{
  public:
    explicit ProgramError(const std::string &what) : Error(what) {}
};

/** An internal inconsistency detected while lowering or scheduling. */
class CompileError : public Error
{
  public:
    explicit CompileError(const std::string &what) : Error(what) {}
};

/**
 * A failure of the static checker: the program does not implement its
 * collective's postcondition, may deadlock, or has a data race.
 */
class VerificationError : public Error
{
  public:
    explicit VerificationError(const std::string &what) : Error(what) {}
};

/** An execution failure in the interpreter or the simulated fabric. */
class RuntimeError : public Error
{
  public:
    explicit RuntimeError(const std::string &what) : Error(what) {}
};

/**
 * A malformed command-line option value (see parseCount). The tools
 * report it as a usage error and exit 2 before doing any work.
 */
class BadValue : public Error
{
  public:
    explicit BadValue(const std::string &what) : Error(what) {}
};

} // namespace mscclang

#endif // MSCCLANG_COMMON_ERROR_H_
