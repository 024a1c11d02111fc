#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "common/error.h"

namespace mscclang {

std::string
formatBytes(std::uint64_t bytes)
{
    static const char *suffixes[] = { "B", "KB", "MB", "GB", "TB" };
    double value = static_cast<double>(bytes);
    int suffix = 0;
    while (value >= 1024.0 && suffix < 4) {
        value /= 1024.0;
        suffix++;
    }
    if (value == static_cast<std::uint64_t>(value))
        return strprintf("%llu%s",
                         static_cast<unsigned long long>(value),
                         suffixes[suffix]);
    return strprintf("%.1f%s", value, suffixes[suffix]);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text,
           std::uint64_t min, std::uint64_t max, int base)
{
    bool ok = !text.empty() &&
        std::isdigit(static_cast<unsigned char>(text[0]));
    std::uint64_t value = 0;
    if (ok) {
        char *end = nullptr;
        errno = 0;
        value = std::strtoull(text.c_str(), &end, base);
        ok = *end == '\0' && errno != ERANGE && value >= min &&
            value <= max;
    }
    if (!ok) {
        throw BadValue(strprintf(
            "%s: '%s' is not an integer in [%llu, %llu]", flag.c_str(),
            text.c_str(), static_cast<unsigned long long>(min),
            static_cast<unsigned long long>(max)));
    }
    return value;
}

double
parseReal(const std::string &flag, const std::string &text, double min,
          double max)
{
    // A number starts with a digit, a point or a sign: this turns
    // away " 4" and the "inf"/"nan" spellings strtod would accept.
    char first = text.empty() ? '\0' : text[0];
    bool ok = std::isdigit(static_cast<unsigned char>(first)) ||
        first == '.' || first == '-' || first == '+';
    double value = 0.0;
    if (ok) {
        char *end = nullptr;
        errno = 0;
        value = std::strtod(text.c_str(), &end);
        ok = end != text.c_str() && *end == '\0' && errno != ERANGE &&
            std::isfinite(value) && value >= min && value <= max;
    }
    if (!ok) {
        throw BadValue(strprintf("%s: '%s' is not a number in [%g, %g]",
                                 flag.c_str(), text.c_str(), min, max));
    }
    return value;
}

std::uint64_t
parseBytes(const std::string &flag, const std::string &text)
{
    // As in parseReal: a size starts with a digit or a point, which
    // turns away " 4", "-1" and the "inf"/"nan" spellings.
    char *end = const_cast<char *>(text.c_str());
    double value = 0.0;
    errno = 0;
    if (std::isdigit(static_cast<unsigned char>(text[0])) || text[0] == '.')
        value = std::strtod(text.c_str(), &end);
    bool ok = end != text.c_str() && errno != ERANGE && std::isfinite(value);
    while (std::isspace(static_cast<unsigned char>(*end)))
        end++;
    std::string unit = end;
    double scale = 0.0;
    if (unit.empty() || unit == "B")
        scale = 1.0;
    else if (unit == "KB" || unit == "K" || unit == "KiB")
        scale = 0x1p10;
    else if (unit == "MB" || unit == "M" || unit == "MiB")
        scale = 0x1p20;
    else if (unit == "GB" || unit == "G" || unit == "GiB")
        scale = 0x1p30;
    else if (unit == "TB" || unit == "T" || unit == "TiB")
        scale = 0x1p40;
    double bytes = value * scale;
    // 2^64 is the first double a uint64 cannot hold.
    ok = ok && scale > 0.0 && bytes < 0x1p64 &&
        (value == 0.0 || bytes >= 1.0);
    if (!ok) {
        throw BadValue(strprintf("%s: '%s' is not a byte size",
                                 flag.c_str(), text.c_str()));
    }
    return static_cast<std::uint64_t>(bytes);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args_copy);
        out.resize(static_cast<size_t>(needed));
    }
    va_end(args_copy);
    return out;
}

std::string
jsonQuote(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

std::vector<std::string>
splitString(const std::string &text, char sep)
{
    std::vector<std::string> fields;
    std::string current;
    for (char c : text) {
        if (c == sep) {
            fields.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    fields.push_back(current);
    return fields;
}

std::vector<std::uint64_t>
sizeSweep(std::uint64_t from_bytes, std::uint64_t to_bytes)
{
    std::vector<std::uint64_t> sizes;
    for (std::uint64_t s = from_bytes; s <= to_bytes;) {
        sizes.push_back(s);
        // Stop before the doubling wraps: a start in the top bit
        // range would otherwise shift to 0 and loop forever.
        if (s > to_bytes / 2)
            break;
        s <<= 1;
    }
    return sizes;
}

} // namespace mscclang
