/**
 * @file
 * The shared command-line walker (tools/args.hh) that every CLI in
 * bench/ and tools/ parses its flags with: accepted values, and the
 * exact stderr and exit status of each way a command line can be
 * wrong.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "args.hh"

using namespace mcd;

namespace
{

void
printUsage(const char *argv0, std::FILE *to)
{
    std::fprintf(to, "usage: %s [--n N] [--s TEXT]\n", argv0);
}

const char *const kUsage = "usage: prog [--n N] [--s TEXT]\n";

struct Parsed
{
    unsigned long long n = 0;
    std::string s;
};

/** Walk `prog ARGS...` as a CLI with `--n` (at most 100) and `--s`
 *  would. */
Parsed
walk(std::vector<std::string> argv)
{
    argv.insert(argv.begin(), "prog");
    std::vector<char *> ptrs;
    ptrs.reserve(argv.size());
    for (std::string &a : argv)
        ptrs.push_back(a.data());
    Parsed p;
    cli::Args args(static_cast<int>(ptrs.size()), ptrs.data(),
                   printUsage);
    while (args.next()) {
        if (args.is("--n"))
            p.n = args.number(100);
        else if (args.is("--s"))
            p.s = args.value();
        else
            args.other();
    }
    return p;
}

/** A regex matching exactly @p text (gtest matches death-test stderr
 *  against a POSIX extended regex). */
std::string
exactly(const std::string &text)
{
    std::string re = "^";
    for (char c : text) {
        if (std::string("\\.[](){}*+?|^$").find(c) != std::string::npos)
            re += '\\';
        re += c;
    }
    return re + "$";
}

/** The stderr of a usage error: message, blank line, usage. */
std::string
usageError(const std::string &msg)
{
    return exactly("prog: " + msg + "\n\n" + kUsage);
}

} // namespace

TEST(Args, AcceptsValuesAndBoundedNumbers)
{
    Parsed p = walk({"--n", "100", "--s", "-1"});
    EXPECT_EQ(p.n, 100u);
    EXPECT_EQ(p.s, "-1");  // a value is taken verbatim
    EXPECT_EQ(walk({"--n", "0"}).n, 0u);
    EXPECT_EQ(walk({}).n, 0u);
}

TEST(ArgsDeathTest, MissingValue)
{
    EXPECT_EXIT(walk({"--n"}), ::testing::ExitedWithCode(1),
                usageError("--n needs a value"));
    EXPECT_EXIT(walk({"--s"}), ::testing::ExitedWithCode(1),
                usageError("--s needs a value"));
}

TEST(ArgsDeathTest, NumbersArePlainDecimal)
{
    for (const char *bad : {"-1", "150,000", "x4", "", " 4", "4k"})
        EXPECT_EXIT(walk({"--n", bad}), ::testing::ExitedWithCode(1),
                    usageError(std::string("--n wants a plain decimal "
                                           "number in [0, 100], got '") +
                               bad + "'"))
            << bad;
}

TEST(ArgsDeathTest, NumbersAreBounded)
{
    EXPECT_EXIT(walk({"--n", "101"}), ::testing::ExitedWithCode(1),
                usageError("--n wants a plain decimal number in "
                           "[0, 100], got '101'"));
    EXPECT_EXIT(walk({"--n", "99999999999999999999999"}),
                ::testing::ExitedWithCode(1),
                usageError("--n wants a plain decimal number in "
                           "[0, 100], got '99999999999999999999999'"));
}

TEST(ArgsDeathTest, UnknownFlag)
{
    EXPECT_EXIT(walk({"--s", "x", "--frob"}),
                ::testing::ExitedWithCode(1),
                usageError("unrecognized argument '--frob'"));
}

TEST(ArgsDeathTest, HelpExitsZero)
{
    EXPECT_EXIT(walk({"--help"}), ::testing::ExitedWithCode(0),
                exactly(""));
}
