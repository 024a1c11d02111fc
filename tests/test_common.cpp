/**
 * @file
 * Unit tests for src/common: byte formatting/parsing, string
 * helpers, deterministic RNG and vocabulary types.
 */

#include <limits>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/types.h"

namespace mscclang {
namespace {

TEST(Strings, FormatBytesExactPowers)
{
    EXPECT_EQ(formatBytes(0), "0B");
    EXPECT_EQ(formatBytes(512), "512B");
    EXPECT_EQ(formatBytes(1024), "1KB");
    EXPECT_EQ(formatBytes(32 << 10), "32KB");
    EXPECT_EQ(formatBytes(1 << 20), "1MB");
    EXPECT_EQ(formatBytes(4ULL << 30), "4GB");
}

TEST(Strings, FormatBytesFractional)
{
    EXPECT_EQ(formatBytes(1536), "1.5KB");
    EXPECT_EQ(formatBytes((1 << 20) + (512 << 10)), "1.5MB");
}

TEST(Strings, ParseBytesUnits)
{
    EXPECT_EQ(parseBytes("--bytes", "64"), 64u);
    EXPECT_EQ(parseBytes("--bytes", "64B"), 64u);
    EXPECT_EQ(parseBytes("--bytes", "32KB"), 32u << 10);
    EXPECT_EQ(parseBytes("--bytes", "1MB"), 1u << 20);
    EXPECT_EQ(parseBytes("--bytes", "2GB"), 2ULL << 30);
    EXPECT_EQ(parseBytes("--bytes", "1TB"), 1ULL << 40);
    EXPECT_EQ(parseBytes("--bytes", "1.5KB"), 1536u);
}

TEST(Strings, ParseBytesRoundTripsFormat)
{
    for (std::uint64_t bytes : sizeSweep(1 << 10, 1ULL << 30))
        EXPECT_EQ(parseBytes("--bytes", formatBytes(bytes)), bytes);
}

TEST(Strings, ParseBytesRejectsJunk)
{
    EXPECT_THROW(parseBytes("--bytes", ""), Error);
    EXPECT_THROW(parseBytes("--bytes", "abc"), Error);
    EXPECT_THROW(parseBytes("--bytes", "12XB"), Error);
    EXPECT_THROW(parseBytes("--bytes", "-5KB"), Error);
}

TEST(Strings, ParseBytesIsStrict)
{
    EXPECT_EQ(parseBytes("--bytes", "0x10"), 16u);
    EXPECT_EQ(parseBytes("--bytes", "1.5KB"), 1536u);
    EXPECT_EQ(parseBytes("--bytes", "0"), 0u);
    for (const char *bad : { "nan", "inf", "1e30GB", "1e-9", " 1MB",
                             "+1MB", "18446744073709551616", "0.5" }) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(parseBytes("--bytes", bad), BadValue);
    }
    try {
        parseBytes("--from", "nan");
        FAIL() << "nan accepted";
    } catch (const BadValue &error) {
        EXPECT_STREQ(error.what(), "--from: 'nan' is not a byte size");
    }
}

TEST(Strings, ParseCountIsStrict)
{
    EXPECT_EQ(parseCount("--n", "42", 0, 100), 42u);
    EXPECT_EQ(parseCount("--n", "0x10", 0, 100, 0), 16u);
    EXPECT_EQ(parseCount("--n", "1", 1, 1), 1u);
    for (const char *bad : { "", "3x", "-1", " 4", "+4", "101", "0",
                             "99999999999999999999999" }) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(parseCount("--n", bad, 1, 100), BadValue);
    }
    try {
        parseCount("--channels", "3x", 0, 7);
        FAIL() << "3x accepted";
    } catch (const BadValue &error) {
        EXPECT_STREQ(error.what(),
                     "--channels: '3x' is not an integer in [0, 7]");
    }
}

TEST(Strings, ParseRealIsStrict)
{
    EXPECT_EQ(parseReal("--x", "0.25", 0.0, 1.0), 0.25);
    EXPECT_EQ(parseReal("--x", "1", 0.0, 1.0), 1.0);
    EXPECT_EQ(parseReal("--x", "0", 0.0, 1.0), 0.0);
    EXPECT_EQ(parseReal("--x", "-2.5e1", -100.0, 0.0), -25.0);
    EXPECT_EQ(parseReal("--x", ".5", 0.0, 1.0), 0.5);
    for (const char *bad : { "", "1.5x", " 0.5", "0.5 ", "nan", "inf",
                             "-inf", "1.01", "-0.1", "1e999", "1e-999",
                             "x", "." }) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(parseReal("--x", bad, 0.0, 1.0), BadValue);
    }
    try {
        parseReal("--at-frac", "1.5x", 0.0, 1.0);
        FAIL() << "1.5x accepted";
    } catch (const BadValue &error) {
        EXPECT_STREQ(error.what(),
                     "--at-frac: '1.5x' is not a number in [0, 1]");
    }
}

TEST(Strings, SplitKeepsEmptyFields)
{
    auto fields = splitString("a,,b", ',');
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(splitString("", ',').size(), 1u);
}

TEST(Strings, SizeSweepIsGeometric)
{
    auto sizes = sizeSweep(1 << 10, 8 << 10);
    ASSERT_EQ(sizes.size(), 4u);
    EXPECT_EQ(sizes[0], 1u << 10);
    EXPECT_EQ(sizes[3], 8u << 10);
}

TEST(Strings, SizeSweepBoundaries)
{
    // Degenerate range: exactly one point.
    auto single = sizeSweep(1 << 20, 1 << 20);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0], 1u << 20);

    // A start in the top bit range must clamp, not wrap the shift to
    // zero and loop forever.
    constexpr std::uint64_t kTop = 1ULL << 63;
    auto top = sizeSweep(kTop, std::numeric_limits<std::uint64_t>::max());
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0], kTop);

    // Non-power-of-two upper bound: the sweep stops at the last
    // doubling point inside the range.
    auto odd = sizeSweep(1 << 10, 3 << 10);
    ASSERT_EQ(odd.size(), 2u);
    EXPECT_EQ(odd.back(), 2u << 10);
}

TEST(Strings, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, RangesRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        float f = rng.nextSignedFloat();
        EXPECT_GE(f, -1.0f);
        EXPECT_LT(f, 1.0f);
    }
}

TEST(Types, Names)
{
    EXPECT_STREQ(bufferKindName(BufferKind::Input), "i");
    EXPECT_STREQ(bufferKindName(BufferKind::Output), "o");
    EXPECT_STREQ(bufferKindName(BufferKind::Scratch), "s");
    EXPECT_STREQ(protocolName(Protocol::LL), "LL");
    EXPECT_STREQ(protocolName(Protocol::LL128), "LL128");
    EXPECT_STREQ(protocolName(Protocol::Simple), "Simple");
    EXPECT_STREQ(protocolName(Protocol::Direct), "Direct");
    EXPECT_STREQ(reduceOpName(ReduceOp::Sum), "sum");
}

} // namespace
} // namespace mscclang
