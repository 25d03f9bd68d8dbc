#include "util/text.hh"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <locale>
#include <sstream>

namespace mcd::util
{

std::string
fmtFixed(double v, int prec)
{
    // The classic C locale guarantees '.' decimal points no matter
    // what the embedding application did with setlocale().
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os.setf(std::ios::fixed);
    os.precision(prec);
    os << v;
    return os.str();
}

std::string
fmtDouble17(double v)
{
    // Identical bytes to `os << v` on a classic-locale stream with
    // precision 17 (the format every existing cache line and ROW
    // payload was written in): default floatfield == printf %.17g.
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os.precision(17);
    os << v;
    return os.str();
}

bool
parseDouble(const std::string &text, double &v)
{
    if (text.empty())
        return false;
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    const char *first = text.data();
    const char *last = first + text.size();
    auto [ptr, ec] = std::from_chars(first, last, v);
    return ec == std::errc() && ptr == last;
#else
    // Fallback for standard libraries without floating-point
    // from_chars (libc++ < 20): classic-locale stream extraction,
    // rejecting partial consumption and leading whitespace.
    std::istringstream is(text);
    is.imbue(std::locale::classic());
    is >> std::noskipws >> v;
    return !is.fail() && is.eof();
#endif
}

bool
parseU64(const std::string &text, std::uint64_t max,
         std::uint64_t &out)
{
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || v > max)
        return false;
    out = v;
    return true;
}

bool
validSpecName(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

bool
validSpecValue(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                  c == '-';
        if (!ok)
            return false;
    }
    return true;
}

void
Fnv1a::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    Fnv1a f;
    for (char c : bytes)
        f.byte(static_cast<unsigned char>(c));
    return f.value();
}

} // namespace mcd::util
