/**
 * @file
 * Minimal gem5-style status/error reporting helpers.
 *
 * panic() is for internal invariant violations: a bug no input can
 * cause, so it aborts.  warn() reports a recoverable anomaly and
 * carries on.  Bad input from a caller is neither: library code
 * throws util::SpecError (util/spec.hh) for it and never ends the
 * process; only the CLIs' flag walker (tools/args.hh) exits.
 */

#ifndef MCD_UTIL_LOGGING_HH
#define MCD_UTIL_LOGGING_HH

#include <cstdarg>
#include <string>

namespace mcd
{

/** Render a printf-style format string to a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal invariant violation and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a recoverable anomaly. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace mcd

#endif // MCD_UTIL_LOGGING_HH
