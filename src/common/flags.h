/**
 * @file
 * The command-line flag parser of every tool and bench. A program
 * declares a table of flags, each with a help line and a typed
 * binding; the parser owns the argv loop, the usage text and the exit
 * codes: 0 on success or --help/-h, 2 on a usage error (an unknown
 * flag, a missing value, a value its binding rejects), 1 on a failure
 * after parsing. Every flag is parsed before the program acts on any;
 * a repeated flag keeps its last value.
 */

#ifndef MSCCLANG_COMMON_FLAGS_H_
#define MSCCLANG_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/strings.h"

namespace mscclang {

/** One program's flag table, its parser and its usage text. */
class Flags
{
  public:
    /** @p synopsis follows "usage: <program> " in the usage text. */
    explicit Flags(std::string synopsis = "[options]")
        : synopsis_(std::move(synopsis))
    {}

    /**
     * Declares a flag by its @p spec: name and value name ("--bytes
     * <size>"), or the name alone for a switch. The usage text lists
     * it as "<spec>  <help>"; a '\n' in @p help starts a new line. The
     * value (or "" for a switch) goes to @p apply, which throws
     * BadValue naming the flag to reject it. The typed bindings below
     * are shorthands for it.
     */
    Flags &custom(const char *spec, const char *help,
                  std::function<void(const std::string &)> apply);

    /** A string. */
    Flags &text(const char *spec, const char *help, std::string *out);

    /** A whole number in [@p min, @p max], read by parseCount. */
    template <typename T>
    Flags &count(const char *spec, const char *help, T *out,
                 std::uint64_t min = 0,
                 std::uint64_t max = std::numeric_limits<T>::max(),
                 int base = 10)
    {
        std::string flag = nameOf(spec);
        return custom(spec, help, [=](const std::string &text) {
            *out = static_cast<T>(parseCount(flag, text, min, max, base));
        });
    }

    /** A finite real in [@p min, @p max], read by parseReal. */
    Flags &real(const char *spec, const char *help, double *out,
                double min,
                double max = std::numeric_limits<double>::max());

    /** A byte size ("64", "32KB", "1.5MB"), read by parseBytes. */
    Flags &bytes(const char *spec, const char *help, std::uint64_t *out);

    /** Comma-separated whole numbers in [@p min, @p max]. */
    Flags &counts(const char *spec, const char *help,
                  std::vector<int> *out, int min, int max);

    /** One of @p choices. */
    Flags &choice(const char *spec, const char *help, std::string *out,
                  std::vector<std::string> choices);

    /** A switch (@p spec names no value): sets @p out. */
    Flags &on(const char *spec, const char *help, bool *out);

    /** Parses @p argv[1..argc) into the bindings (@p argv[0] names
     *  the program); false at --help or -h. @throws BadValue on a
     *  usage error. */
    bool tryParse(int argc, const char *const *argv);

    /** tryParse, or exit: 0 after printing the usage text for
     *  --help, 2 after a usage error (see fail). */
    void parse(int argc, char **argv);

    /** parse, then @p body: returns its exit code, or 1 after
     *  printing the error it throws. */
    int run(int argc, char **argv, const std::function<int()> &body);

    /** Whether the last parse bound flag @p name. */
    bool seen(const std::string &name) const;

    /** Reports a usage error only the program can detect (flags that
     *  conflict, say) with the usage text, and exits 2. */
    [[noreturn]] void fail(const std::string &message) const;

    /** The usage text: synopsis, then one line per flag. */
    std::string usage() const;

  private:
    struct Flag
    {
        std::string spec;
        std::string help;
        std::function<void(const std::string &)> apply;
    };

    /** The flag name of @p spec: its first word. */
    static std::string nameOf(const std::string &spec)
    {
        return spec.substr(0, spec.find(' '));
    }

    std::string program_;
    std::string synopsis_;
    std::vector<Flag> flags_;
    std::vector<std::string> seen_;
};

/** Writes @p text to the file a path flag names, or to stdout if the
 *  path is "-". @throws mscclang::Error if the file cannot be
 *  written. */
void writeOutput(const std::string &path, const std::string &text);

} // namespace mscclang

#endif // MSCCLANG_COMMON_FLAGS_H_
