/**
 * @file
 * Locale-independent text primitives shared by the spec engine
 * (util/spec.hh), the workload authoring format and the cache/wire
 * paths: canonical fixed-point formatting, strict double parsing, the
 * `[a-z0-9_-]+` name rule, and the FNV-1a hash used for
 * content-addressed cache-key fragments.
 */

#ifndef MCD_UTIL_TEXT_HH
#define MCD_UTIL_TEXT_HH

#include <cstdint>
#include <string>

namespace mcd::util
{

/** Locale-independent fixed-point decimal (the canonical format of
 *  numeric spec parameters and of cache-key numbers). */
std::string fmtFixed(double v, int prec);

/**
 * Locale-independent 17-significant-digit decimal (C-locale `%.17g`
 * semantics): the one sanctioned way to write a double on a
 * persisted or wire path — result-cache CSV lines, MCD/2 ROW
 * payloads.  17 significant digits round-trip any IEEE-754 double
 * exactly, and the classic locale guarantees '.' decimal points no
 * matter what the embedding application did with setlocale().
 * `mcd_lint` (rule `locale-safety`) bans ad-hoc stream precision
 * fiddling on those paths in favour of this helper.
 */
std::string fmtDouble17(double v);

/** Strict, locale-independent full-string double parse. */
bool parseDouble(const std::string &text, double &v);

/** True iff @p s is a non-empty [a-z0-9_-]+ spec name. */
bool validSpecName(const std::string &s);

/** True iff @p s is a non-empty [A-Za-z0-9_.-]+ string value (the
 *  charset spec string parameters may take: it excludes the
 *  grammar's own separators ':', ',', '=' and whitespace). */
bool validSpecValue(const std::string &s);

/** 64-bit FNV-1a over a byte string. */
std::uint64_t fnv1a64(const std::string &bytes);

} // namespace mcd::util

#endif // MCD_UTIL_TEXT_HH
