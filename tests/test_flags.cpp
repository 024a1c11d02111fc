/**
 * Unit tests for the command-line flag parser (common/flags.h): every
 * binding type with its range errors, missing values, unknown and
 * repeated flags, --help, run's exit code and the generated usage
 * text.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/flags.h"

using namespace mscclang;

namespace {

/** Parses @p args (after the program name "prog") into @p flags. */
bool
parse(Flags &flags, std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return flags.tryParse(static_cast<int>(args.size()), args.data());
}

/** The BadValue message @p args raise, or "" if they parse. */
std::string
errorOf(Flags &flags, std::vector<const char *> args)
{
    try {
        parse(flags, std::move(args));
    } catch (const BadValue &error) {
        return error.what();
    }
    return "";
}

} // namespace

TEST(Flags, BindsEveryType)
{
    std::string text;
    int count = 0;
    std::uint64_t seed = 0;
    double real = 0.0;
    std::uint64_t bytes = 0;
    std::vector<int> list = { 9 };
    std::string choice = "on";
    bool on = false;
    std::string custom;
    Flags flags;
    flags.text("--text <s>", "a string", &text)
        .count("--count <n>", "a count", &count, 1, 10)
        .count("--seed <n>", "a hex count", &seed, 0, 1000, 0)
        .real("--real <f>", "a real", &real, 0.0, 1.0)
        .bytes("--bytes <size>", "a size", &bytes)
        .counts("--list <a,b>", "a list", &list, 0, 8)
        .choice("--choice <arm>", "a choice", &choice,
                { "on", "off" })
        .on("--on", "a switch", &on)
        .custom("--custom <x>", "a custom value",
                [&](const std::string &value) { custom = value + "!"; });
    ASSERT_TRUE(parse(flags, { "--text", "hi", "--count", "7", "--seed",
                               "0x10", "--real", "0.25", "--bytes",
                               "1.5KB", "--list", "1,0,8", "--choice",
                               "off", "--on", "--custom", "x" }));
    EXPECT_EQ(text, "hi");
    EXPECT_EQ(count, 7);
    EXPECT_EQ(seed, 16u);
    EXPECT_EQ(real, 0.25);
    EXPECT_EQ(bytes, 1536u);
    EXPECT_EQ(list, (std::vector<int>{ 1, 0, 8 }));
    EXPECT_EQ(choice, "off");
    EXPECT_TRUE(on);
    EXPECT_EQ(custom, "x!");
    EXPECT_TRUE(flags.seen("--list"));
    EXPECT_FALSE(flags.seen("--help"));
}

TEST(Flags, UnsetFlagsKeepTheirDefaults)
{
    int count = 4;
    bool on = false;
    Flags flags;
    flags.count("--count <n>", "a count", &count).on("--on", "", &on);
    ASSERT_TRUE(parse(flags, {}));
    EXPECT_EQ(count, 4);
    EXPECT_FALSE(on);
    EXPECT_FALSE(flags.seen("--count"));
}

TEST(Flags, RejectsOutOfRangeValues)
{
    int count = 0;
    double real = 0.0;
    std::uint64_t bytes = 0;
    std::vector<int> list;
    std::string choice;
    Flags flags;
    flags.count("--count <n>", "", &count, 1, 10)
        .real("--real <f>", "", &real, 0.0, 1.0)
        .bytes("--bytes <size>", "", &bytes)
        .counts("--list <a,b>", "", &list, 0, 8)
        .choice("--choice <arm>", "", &choice, { "on", "off" });
    EXPECT_EQ(errorOf(flags, { "--count", "11" }),
              "--count: '11' is not an integer in [1, 10]");
    EXPECT_EQ(errorOf(flags, { "--count", "3x" }),
              "--count: '3x' is not an integer in [1, 10]");
    EXPECT_EQ(errorOf(flags, { "--real", "1.5" }),
              "--real: '1.5' is not a number in [0, 1]");
    EXPECT_EQ(errorOf(flags, { "--bytes", "nan" }),
              "--bytes: 'nan' is not a byte size");
    EXPECT_EQ(errorOf(flags, { "--list", "1,9" }),
              "--list: '9' is not an integer in [0, 8]");
    EXPECT_EQ(errorOf(flags, { "--list", "1,,2" }),
              "--list: '' is not an integer in [0, 8]");
    EXPECT_EQ(errorOf(flags, { "--choice", "both" }),
              "--choice: 'both' is not one of on | off");
    EXPECT_EQ(count, 0);
    EXPECT_TRUE(list.empty());
}

TEST(Flags, RejectsAMissingValueAndAnUnknownFlag)
{
    std::string text;
    bool on = false;
    Flags flags;
    flags.text("--text <s>", "", &text).on("--on", "", &on);
    EXPECT_EQ(errorOf(flags, { "--on", "--text" }),
              "--text <s>: missing value");
    EXPECT_EQ(errorOf(flags, { "--bogus" }), "unknown flag '--bogus'");
    // A switch takes no value, so what follows is the next flag.
    EXPECT_EQ(errorOf(flags, { "--on", "1" }), "unknown flag '1'");
}

TEST(Flags, ARepeatedFlagKeepsItsLastValue)
{
    int count = 0;
    std::vector<int> list;
    Flags flags;
    flags.count("--count <n>", "", &count)
        .counts("--list <a,b>", "", &list, 0, 8);
    ASSERT_TRUE(parse(flags, { "--count", "1", "--list", "1,2",
                               "--count", "2", "--list", "3" }));
    EXPECT_EQ(count, 2);
    EXPECT_EQ(list, std::vector<int>{ 3 });
}

TEST(Flags, HelpStopsTheParse)
{
    int count = 0;
    Flags flags;
    flags.count("--count <n>", "", &count);
    EXPECT_FALSE(parse(flags, { "--help", "--bogus" }));
    EXPECT_FALSE(parse(flags, { "--count", "3", "-h" }));
    EXPECT_EQ(count, 3);
}

TEST(Flags, RunReturnsTheBodysCodeOrOneWhenItThrows)
{
    std::string program = "prog";
    char *argv[] = { program.data(), nullptr };
    Flags flags;
    EXPECT_EQ(flags.run(1, argv, [] { return 3; }), 3);
    EXPECT_EQ(flags.run(1, argv, []() -> int { throw Error("late"); }), 1);
}

TEST(Flags, UsageListsEveryDeclaredFlag)
{
    std::string text;
    int count = 0;
    bool on = false;
    Flags flags("--text <s> [options]");
    flags.text("--text <s>", "a string", &text)
        .count("--a-long-count-name <n>", "a count\nover two lines",
               &count)
        .on("--on", "a switch", &on);
    ASSERT_TRUE(parse(flags, {}));
    EXPECT_EQ(flags.usage(),
              "usage: prog --text <s> [options]\n"
              "  --text <s>               a string\n"
              "  --a-long-count-name <n>  a count\n"
              "                           over two lines\n"
              "  --on                     a switch\n"
              "  --help, -h               print this text and exit\n");
}
