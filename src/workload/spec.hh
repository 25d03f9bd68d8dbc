/**
 * @file
 * The workload spec vocabulary: the spec engine's
 * `name[:key=value,...]` grammar (util/spec.hh, shared with
 * `control::PolicySpec`) as it addresses workloads everywhere a
 * benchmark name is accepted — registry lookup, `--workload` CLI
 * selection, sweep cells and memo-cache keys.
 *
 * Workload specs flow through code that must be able to *recover*
 * from a bad spec (a sweep cell naming an unloaded authored program,
 * a stale cache key), so errors here are a catchable `SpecError`,
 * the engine's one error type, which `exp::Runner` also throws for
 * a bad policy spec and `ProgramBuilder` for a malformed program.
 */

#ifndef MCD_WORKLOAD_SPEC_HH
#define MCD_WORKLOAD_SPEC_HH

#include <string>

#include "util/spec.hh"

namespace mcd::workload
{

using util::SpecError;

/** A workload schema entry (util/spec.hh); text parameters with an
 *  empty default are required. */
using SpecParamInfo = util::SpecParamInfo;

/**
 * A parsed workload selection: registry name plus key=value
 * parameters.  Build from text with `parseWorkloadSpec()`; print
 * with `str()`.  A spec becomes *canonical* once validated against
 * its factory's schema (`canonicalWorkloadSpec()`): every
 * schema parameter present in schema order with canonical value
 * formatting and the typed value cached.  parse -> print -> parse of
 * a canonical spec is the identity, and the canonical string is used
 * verbatim in memo-cache keys.
 */
struct WorkloadSpec
{
    std::string name;
    util::SpecParams params;

    /** Start a spec for the named workload. */
    static WorkloadSpec
    of(std::string workload_name)
    {
        WorkloadSpec s;
        s.name = std::move(workload_name);
        return s;
    }

    /** Set a raw textual parameter (overwrites an existing key). */
    WorkloadSpec &
    set(const std::string &key, const std::string &value)
    {
        params.set(key, value);
        return *this;
    }
    /** Set a numeric parameter (canonical 3-digit fixed format). */
    WorkloadSpec &
    set(const std::string &key, double value)
    {
        params.set(key, value);
        return *this;
    }

    /** The spec as text, `name[:key=value,...]` (params as stored). */
    std::string str() const { return params.str(name); }

    /** Typed accessors; throw SpecError if the key is absent (call
     *  only on canonical specs). */
    double num(const std::string &key) const { return params.at(key).num; }
    const std::string &
    text(const std::string &key) const
    {
        return params.at(key).text;
    }

    /** Pointer to a parameter by name, or nullptr. */
    const util::SpecParam *
    find(const std::string &key) const
    {
        return params.find(key);
    }
};

/**
 * Parse `name[:key=value,...]` into @p out (syntax only — the
 * registry does semantic validation).  On failure returns false and
 * sets @p err to a human-readable message.
 */
inline bool
parseWorkloadSpec(const std::string &text, WorkloadSpec &out,
                  std::string &err)
{
    out = WorkloadSpec();
    return util::splitSpec(text, "workload spec", out.name, out.params,
                           err);
}

} // namespace mcd::workload

#endif // MCD_WORKLOAD_SPEC_HH
