#include "workload/registry.hh"

#include <map>
#include <mutex>

#include "util/logging.hh"
#include "util/text.hh"
#include "workload/author.hh"
#include "workload/suite.hh"

namespace mcd::workload
{

namespace
{

/** The engine behind WorkloadRegistry.  Leaked: factories registered
 *  from static initializers must stay valid through program exit in
 *  any TU order. */
util::SpecRegistry &
workloads()
{
    static util::SpecRegistry *reg = new util::SpecRegistry("workload");
    return *reg;
}

/** Authored programs by (name, hash) — the `prog` factory's backing
 *  table (see addProgram()). */
struct Programs
{
    std::mutex m;
    std::map<std::pair<std::string, std::string>, Benchmark> table;
};

Programs &
programs()
{
    static Programs *p = new Programs();
    return *p;
}

/** Parse and canonicalize @p text into @p spec; throws SpecError.
 *  Returns the factory it names. */
const WorkloadFactory &
canonical(const std::string &text, WorkloadSpec &spec)
{
    std::string err;
    if (!parseWorkloadSpec(text, spec, err))
        throw SpecError(err);
    return static_cast<const WorkloadFactory &>(
        workloads().canonicalize(spec.name, spec.params));
}

/** 16-hex content hash of a program's canonical text. */
std::string
programHash(const std::string &canonical_text)
{
    return strprintf("%016llx",
                     (unsigned long long)util::fnv1a64(
                         canonical_text));
}

/**
 * The handle factory behind authored programs: `prog:name=N,hash=H`
 * resolves against the registry's program table, which
 * `addProgram()` fills.  A handle whose program was never loaded in
 * this process is a catchable SpecError — the handle alone cannot
 * reconstruct the program.
 */
class ProgFactory final : public WorkloadFactory
{
  public:
    const char *
    name() const override
    {
        return "prog";
    }

    const char *
    description() const override
    {
        return "authored program loaded via --workload @file "
               "(content-addressed handle; see docs/WORKLOADS.md)";
    }

    std::vector<SpecParamInfo>
    params() const override
    {
        return {
            SpecParamInfo::text("name", "",
                                "program name from the text's "
                                "program: section"),
            SpecParamInfo::text("hash", "",
                                "16-hex fnv1a of the canonical "
                                "program text"),
        };
    }

    Benchmark
    make(const WorkloadSpec &spec) const override
    {
        Programs &p = programs();
        const Benchmark *found = nullptr;
        {
            std::lock_guard<std::mutex> l(p.m);
            auto it =
                p.table.find({spec.text("name"), spec.text("hash")});
            if (it != p.table.end())
                found = &it->second;
        }
        if (!found)
            throw SpecError(
                "authored program '" + spec.str() +
                "' is not loaded in this process — pass the "
                "program text via --workload @file (or "
                "WorkloadRegistry::addProgram) first");
        // Copy outside the lock: std::map nodes are stable, table
        // entries are immutable and never erased, and the deep copy
        // of a large program must not serialize sweep threads on
        // the table mutex.
        return *found;
    }
};

MCD_REGISTER_WORKLOAD(ProgFactory);

} // namespace

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry reg;
    return reg;
}

void
WorkloadRegistry::add(std::unique_ptr<const WorkloadFactory> f)
{
    workloads().add(std::move(f));
}

std::vector<const WorkloadFactory *>
WorkloadRegistry::list() const
{
    return workloads().listAs<WorkloadFactory>();
}

std::string
WorkloadRegistry::addProgram(const std::string &program_text)
{
    Benchmark bm = parseProgram(program_text);
    std::string canonical = printProgram(bm);
    std::string name = bm.program.name;
    std::string hash = programHash(canonical);
    {
        Programs &p = programs();
        std::lock_guard<std::mutex> l(p.m);
        // Content-addressed: re-loading the same text is idempotent.
        p.table.emplace(std::make_pair(name, hash), bm);
    }
    return WorkloadSpec::of("prog")
        .set("name", name)
        .set("hash", hash)
        .str();
}

Benchmark
makeBenchmark(const std::string &spec_text)
{
    // A suite name, a generator spec and an authored-program handle
    // all resolve -- and fail -- the same way: an unknown name is a
    // catchable SpecError listing every registered workload.
    WorkloadSpec spec;
    return canonical(spec_text, spec).make(spec);
}

std::string
canonicalWorkloadSpec(const std::string &spec_text)
{
    WorkloadSpec spec;
    canonical(spec_text, spec);
    return spec.str();
}

std::string
describeWorkloads()
{
    return workloads().describe(14);
}

WorkloadRegistrar::WorkloadRegistrar(
    std::unique_ptr<const WorkloadFactory> f)
{
    WorkloadRegistry::instance().add(std::move(f));
}

} // namespace mcd::workload
