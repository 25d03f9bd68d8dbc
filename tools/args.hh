/**
 * @file
 * The one strict command-line walker behind every CLI in bench/ and
 * tools/ (bench_throughput aside: Google Benchmark owns its usage
 * text).  A CLI walks its arguments with it and adds one branch per
 * flag; values, bounded numbers, `--help` and unrecognized arguments
 * are handled here, with one message each:
 *
 *     cli::Args args(argc, argv, printUsage);
 *     while (args.next()) {
 *         if (args.is("--out"))
 *             out = args.value();
 *         else if (args.is("--jobs"))
 *             jobs = static_cast<unsigned>(args.number(256));
 *         else
 *             args.other();  // --help, or an unrecognized argument
 *     }
 *
 * Bad input ends the process: the message, a blank line and the
 * usage go to stderr, and the exit status is 1 (`--help` prints the
 * usage to stdout and exits 0).  That is why this header lives
 * outside src/: library code reports bad input by throwing, never by
 * exiting.
 */

#ifndef MCD_TOOLS_ARGS_HH
#define MCD_TOOLS_ARGS_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace mcd::cli
{

class Args
{
  public:
    /** Prints a CLI's usage text, naming the binary @p argv0. */
    using Usage = void (*)(const char *argv0, std::FILE *to);

    Args(int argc, char **argv, Usage usage)
        : argc_(argc), argv_(argv), usage_(usage)
    {
    }

    /** Step to the next argument; false past the last one. */
    bool next() { return ++i_ < argc_; }

    /** Whether the current argument is @p flag. */
    bool
    is(const char *flag) const
    {
        return !std::strcmp(argv_[i_], flag);
    }

    /** Consume and return the value after the current flag. */
    const char *
    value()
    {
        if (i_ + 1 >= argc_)
            fail(std::string(argv_[i_]) + " needs a value");
        return argv_[++i_];
    }

    /**
     * Consume the current flag's value as a plain decimal number in
     * [0, @p max].  Values get the same strictness as flag names: a
     * partial parse ("150,000", "x4"), a sign ("-1", which strtoull
     * would wrap to ULLONG_MAX without complaint) or an overflow is
     * an error, not a silent truncation.
     */
    unsigned long long
    number(unsigned long long max)
    {
        const char *flag = argv_[i_];
        const char *text = value();
        char *end = nullptr;
        errno = 0;
        unsigned long long v = std::strtoull(text, &end, 10);
        if (!(text[0] >= '0' && text[0] <= '9') || *end != '\0' ||
            errno == ERANGE || v > max)
            fail(std::string(flag) +
                 " wants a plain decimal number in [0, " +
                 std::to_string(max) + "], got '" + text + "'");
        return v;
    }

    /** The current argument matched no flag of the CLI: `--help`
     *  prints the usage and exits 0, anything else is an error. */
    [[noreturn]] void
    other() const
    {
        if (is("--help")) {
            usage_(argv_[0], stdout);
            std::exit(0);
        }
        fail(std::string("unrecognized argument '") + argv_[i_] + "'");
    }

    /** A usage error: `<argv0>: <msg>`, a blank line and the usage
     *  on stderr, then exit 1. */
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        std::fprintf(stderr, "%s: %s\n\n", argv_[0], msg.c_str());
        usage_(argv_[0], stderr);
        std::exit(1);
    }

  private:
    int argc_;
    char **argv_;
    Usage usage_;
    int i_ = 0;
};

} // namespace mcd::cli

#endif // MCD_TOOLS_ARGS_HH
