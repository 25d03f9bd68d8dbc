/**
 * @file
 * The open workload API: every benchmark the harness can run — the
 * 19 suite programs standing in for Table 2, the seeded procedural
 * generator, authored programs loaded from spec text — is produced
 * by a `workload::WorkloadFactory` registered with the
 * `WorkloadRegistry` — like `control::PolicyRegistry`, a thin typed
 * face over the spec engine (util/spec.hh).
 *
 * A workload is addressed by a `WorkloadSpec` string,
 *
 *     name[:key=value[,key=value...]]
 *
 * e.g. `gzip`, `gen:phases=4,mem=0.4,seed=7`,
 * `prog:name=solver,hash=1f2e...`.  Specs canonicalize against the
 * factory's parameter schema (unset parameters take their documented
 * defaults, values are reformatted, parameters are put in schema
 * order), and the canonical string is the single source of truth for
 * memo/CSV cache keys, CLI selection (`--workload <spec>`) and sweep
 * construction — everywhere a suite name was accepted before, any
 * workload spec is accepted now.
 *
 * Adding a workload family is a one-file affair: subclass
 * `WorkloadFactory` in a new translation unit under
 * `src/workload/workloads/`, register it with
 * `MCD_REGISTER_WORKLOAD(...)`, and list the file in
 * `src/workload/CMakeLists.txt`.  No changes to `exp/` or `bench/`
 * are needed — the registry makes it selectable in every bench
 * binary and in every sweep like any built-in.
 */

#ifndef MCD_WORKLOAD_REGISTRY_HH
#define MCD_WORKLOAD_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "workload/spec.hh"
#include "workload/suite.hh"

namespace mcd::workload
{

/**
 * Abstract workload factory: a registry entry (name, description,
 * parameter schema — see util::SpecKind) that can build its
 * benchmark.  Implementations are stateless const singletons owned by
 * the registry; `make()` may be called concurrently from any number
 * of sweep threads and must be deterministic in the canonical spec
 * (same spec, bit-identical Benchmark).
 */
class WorkloadFactory : public util::SpecKind
{
  public:
    /**
     * Construct the benchmark.  @p spec is canonical (every schema
     * parameter present and typed).  Throws SpecError for
     * user-recoverable construction failures.
     */
    virtual Benchmark make(const WorkloadSpec &spec) const = 0;
};

/**
 * Global name -> WorkloadFactory table.  Factories register
 * themselves at static-initialization time via
 * `MCD_REGISTER_WORKLOAD`; lookups are thread-safe.
 */
class WorkloadRegistry
{
  public:
    static WorkloadRegistry &instance();

    /** Register @p f; fatal on a duplicate name. */
    void add(std::unique_ptr<const WorkloadFactory> f);

    /** Every registered factory, sorted by name. */
    std::vector<const WorkloadFactory *> list() const;

    /**
     * Load an authored program (the docs/WORKLOADS.md text format)
     * into the registry's program table and return its handle spec,
     * `prog:name=<name>,hash=<16-hex fnv1a of the canonical text>` —
     * usable anywhere a workload spec is (sweep cells, `--workload`,
     * cache keys).  The handle is content-addressed: the same
     * program text yields the same handle in every run, so memo/CSV
     * cache lines stay valid across processes that load the same
     * file.  Throws SpecError on malformed text.
     */
    std::string addProgram(const std::string &program_text);

  private:
    WorkloadRegistry() = default;
};

/** Registers a workload factory at static-initialization time. */
struct WorkloadRegistrar
{
    explicit WorkloadRegistrar(
        std::unique_ptr<const WorkloadFactory> f);
};

/**
 * Place at namespace scope in a factory's translation unit.  The
 * factory objects under `src/workload/workloads/` are linked into
 * every executable unconditionally (see
 * src/workload/CMakeLists.txt), so registration cannot be
 * dead-stripped.
 */
#define MCD_REGISTER_WORKLOAD(cls)                                   \
    static const ::mcd::workload::WorkloadRegistrar                  \
        mcdWorkloadRegistrar_##cls { std::make_unique<cls>() }

/**
 * Resolve @p spec_text — a suite name, `gen:...` spec, or `prog:...`
 * handle — through the registry and construct the benchmark.
 * Throws SpecError on a malformed spec or unknown name (the message
 * lists every registered workload).
 */
Benchmark makeWorkload(const std::string &spec_text);

/**
 * Parse and canonicalize @p spec_text, returning the canonical spec
 * string (the memo-cache identity of the workload).  Throws
 * SpecError on failure.
 */
std::string canonicalWorkloadSpec(const std::string &spec_text);

/**
 * Human-readable listing of every registered workload — name,
 * description, and each parameter with its type and default — one
 * definition shared by `--list-workloads` and the explorer example.
 */
std::string describeWorkloads();

} // namespace mcd::workload

#endif // MCD_WORKLOAD_REGISTRY_HH
