#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace mcd
{

namespace
{

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

} // namespace

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    // mcd-lint: allow(library-exit): a broken invariant is a bug, not
    // bad input; nothing can recover, so the process stops here.
    std::abort();
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

} // namespace mcd
