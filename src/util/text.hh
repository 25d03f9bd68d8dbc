/**
 * @file
 * Locale-independent text primitives shared by the spec engine
 * (util/spec.hh), the workload authoring format and the cache/wire
 * paths: canonical fixed-point formatting, strict double and integer
 * parsing, the `[a-z0-9_-]+` name rule, and the FNV-1a hash.
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

/** Strict full-string decimal parse into [0, @p max]: digits only,
 *  no sign or blanks, never through a double.  False (and @p out
 *  untouched) on anything else. */
bool parseU64(const std::string &text, std::uint64_t max,
              std::uint64_t &out);

/** True iff @p s is a non-empty [a-z0-9_-]+ spec name. */
bool validSpecName(const std::string &s);

/** True iff @p s is a non-empty [A-Za-z0-9_.-]+ string value (the
 *  charset spec string parameters may take: it excludes the
 *  grammar's own separators ':', ',', '=' and whitespace). */
bool validSpecValue(const std::string &s);

/**
 * Incremental 64-bit FNV-1a, the one hash behind content-addressed
 * cache-key fragments (`prog:` handles), the config fingerprint and
 * learned-model digests.  Words are fed least significant byte
 * first, so a value hashes the same on every host.
 */
class Fnv1a
{
  public:
    void
    byte(unsigned char b)
    {
        h = (h ^ b) * 1099511628211ULL;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i, v >>= 8)
            byte(static_cast<unsigned char>(v & 0xffu));
    }

    void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }

    /** The bit pattern of @p v. */
    void f64(double v);

    std::uint64_t value() const { return h; }

  private:
    // Not the reference offset basis (14695981039346656037): every
    // pinned key and handle was made with this one.
    std::uint64_t h = 1469598103934665603ULL;
};

/** 64-bit FNV-1a over a byte string. */
std::uint64_t fnv1a64(const std::string &bytes);

} // namespace mcd::util

#endif // MCD_UTIL_TEXT_HH
