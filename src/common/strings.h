/**
 * @file
 * Small string and byte-size helpers shared across the library.
 */

#ifndef MSCCLANG_COMMON_STRINGS_H_
#define MSCCLANG_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mscclang {

/**
 * Formats a byte count the way the paper's plots label their x axes:
 * "1KB", "32MB", "4GB". Non-power-of-1024 values keep one decimal.
 */
std::string formatBytes(std::uint64_t bytes);

/**
 * Parses the whole of @p text as a byte count: a number (decimal or
 * hex, as for strtod) and an optional unit, B | K | KB | KiB, M, G
 * or T alike ("64", "32KB", "1.5MB", "0x10"). An empty token, a
 * leading space or sign, NaN, infinity, an unknown unit, a size
 * beyond 64 bits or a nonzero size that rounds to 0 bytes throws
 * BadValue naming @p flag.
 */
std::uint64_t parseBytes(const std::string &flag, const std::string &text);

/**
 * Parses the whole of @p text as an unsigned integer in
 * [@p min, @p max] (base as for strtoull). A sign, a leading space,
 * trailing junk ("3x"), an empty token or an out-of-range value
 * throws BadValue naming @p flag — never a silent 0, a truncated
 * prefix or a wrapped huge number.
 */
std::uint64_t parseCount(const std::string &flag, const std::string &text,
                         std::uint64_t min, std::uint64_t max,
                         int base = 10);

/**
 * Parses the whole of @p text as a finite real number in
 * [@p min, @p max] (decimal or hex, as for strtod). An empty token, a
 * leading space, trailing junk ("1.5x"), NaN, infinity, an overflow
 * or underflow, or an out-of-range value throws BadValue naming
 * @p flag.
 */
double parseReal(const std::string &flag, const std::string &text,
                 double min, double max);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * @p text as a JSON string literal: in double quotes, with quotes and
 * backslashes escaped, newline, tab and carriage return in their short
 * escapes and any other control character as a four-digit unicode
 * escape. The one escaper of every JSON writer in the library.
 */
std::string jsonQuote(const std::string &text);

/** Splits @p text on @p sep, keeping empty fields. */
std::vector<std::string> splitString(const std::string &text, char sep);

/**
 * The geometric sweep of buffer sizes used by the paper's figures:
 * every power of two from @p fromBytes to @p toBytes inclusive.
 */
std::vector<std::uint64_t> sizeSweep(std::uint64_t from_bytes,
                                     std::uint64_t to_bytes);

} // namespace mscclang

#endif // MSCCLANG_COMMON_STRINGS_H_
