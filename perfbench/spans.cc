#include "spans.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench
{

namespace
{

std::mutex logM;
std::vector<SpanRecord> finished;  // guarded by logM
std::atomic<std::uint64_t> nextId{1};
std::atomic<unsigned> nextLane{0};
thread_local std::uint64_t openTop = 0;

void
jsonString(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        std::fputc(c, f);
    }
    std::fputc('"', f);
}

} // namespace

std::int64_t
nowNs()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

unsigned
thisLane()
{
    thread_local const unsigned lane = nextLane.fetch_add(1);
    return lane;
}

Span::Span(const char *name, std::string cell)
    : Span(name, std::move(cell), openTop)
{
}

Span::Span(const char *name, std::string cell, std::uint64_t parent)
    : savedTop(openTop)
{
    rec.id = nextId.fetch_add(1);
    rec.parent = parent;
    rec.name = name;
    rec.cell = std::move(cell);
    rec.lane = thisLane();
    openTop = rec.id;
    rec.startNs = nowNs();
}

Span::~Span()
{
    rec.endNs = nowNs();
    openTop = savedTop;
    std::lock_guard<std::mutex> l(logM);
    finished.push_back(std::move(rec));
}

double
Span::elapsedMs() const
{
    return static_cast<double>(nowNs() - rec.startNs) / 1e6;
}

bool
writeChromeTrace(const std::string &path)
{
    std::vector<SpanRecord> spans;
    {
        std::lock_guard<std::mutex> l(logM);
        spans = finished;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::fputs("{\"ph\":\"X\",\"pid\":1,\"name\":", f);
        jsonString(f, s.name);
        std::fprintf(f,
                     ",\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,\"cell\":",
                     s.lane, static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        jsonString(f, s.cell);
        std::fputs(i + 1 < spans.size() ? "}},\n" : "}}\n", f);
    }
    std::fputs("]}\n", f);
    bool ok = !std::ferror(f);
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
