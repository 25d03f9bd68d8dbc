/**
 * @file
 * The workload spec vocabulary: the `name[:key=value,...]` line
 * grammar (shared with `control::PolicySpec` in shape and
 * canonicalization rules) that addresses workloads everywhere a
 * benchmark name is accepted — registry lookup, `--workload` CLI
 * selection, sweep cells and memo-cache keys.
 *
 * Workload specs flow through code that must be able to *recover*
 * from a bad spec (a sweep cell naming an unloaded authored program,
 * a stale cache key), so errors here are a catchable `SpecError`,
 * not `fatal()` — the same type `exp::Runner` throws for a bad
 * policy spec.
 */

#ifndef MCD_WORKLOAD_SPEC_HH
#define MCD_WORKLOAD_SPEC_HH

#include <stdexcept>
#include <string>
#include <vector>

namespace mcd::workload
{

/** A user-level workload spec error: bad grammar, unknown name or
 *  key, out-of-range value.  Thrown by the registry/authoring/
 *  generator entry points; `what()` is a complete, self-contained
 *  message (it lists what *is* known where that helps). */
class SpecError : public std::runtime_error
{
  public:
    explicit SpecError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Types a workload spec parameter can take. */
enum class SpecParamType
{
    Num,  ///< locale-independent decimal (canonical: 3 digits, or
          ///< plain integers for integer-flagged parameters)
    Str,  ///< restricted string ([A-Za-z0-9_.-]+)
};

/**
 * One entry of a workload factory's parameter schema: name, type,
 * documented default (what an unset spec parameter falls back to),
 * a one-line help string for `--list-workloads`, and an allowed
 * [min, max] range for Num parameters, enforced at canonicalization
 * so an out-of-range value fails at the CLI, not mid-sweep.
 */
struct SpecParamInfo
{
    std::string name;
    SpecParamType type = SpecParamType::Num;
    double defaultNum = 0.0;
    std::string defaultStr;
    std::string help;
    double minNum = -1e300;
    double maxNum = 1e300;
    /** Num parameters only: reject fractional values and print the
     *  canonical text without a decimal point. */
    bool integer = false;

    /** Named builders — schemas read better and cannot misorder the
     *  positional fields. */
    static SpecParamInfo num(std::string name, double def,
                             std::string help, double min = -1e300,
                             double max = 1e300);
    static SpecParamInfo integerNum(std::string name, double def,
                                    std::string help, double min,
                                    double max);
    static SpecParamInfo str(std::string name, std::string def,
                             std::string help);
};

/**
 * A parsed workload selection: registry name plus key=value
 * parameters.  Build from text with `parseWorkloadSpec()`; print
 * with `str()`.  A spec becomes *canonical* once validated against
 * its factory's schema (`WorkloadRegistry::canonicalize()`): every
 * schema parameter present in schema order with canonical value
 * formatting and the typed value cached.  parse -> print -> parse of
 * a canonical spec is the identity, and the canonical string is used
 * verbatim in memo-cache keys.
 */
struct WorkloadSpec
{
    /** One key=value parameter.  `num` is the typed value, valid
     *  once the spec is canonical (Num parameters). */
    struct Param
    {
        std::string name;
        std::string text;
        double num = 0.0;
    };

    std::string name;
    std::vector<Param> params;

    /** Start a spec for the named workload. */
    static WorkloadSpec of(std::string workload_name);

    /** Set a raw textual parameter (overwrites an existing key). */
    WorkloadSpec &set(const std::string &key, const std::string &value);
    /** Set a numeric parameter (canonical 3-digit fixed format). */
    WorkloadSpec &set(const std::string &key, double value);

    /** The spec as text, `name[:key=value,...]` (params as stored). */
    std::string str() const;

    /** Typed numeric accessor; throws SpecError if the key is absent
     *  (call only on canonical specs). */
    double num(const std::string &key) const;

    /** Textual accessor; throws SpecError if the key is absent. */
    const std::string &text(const std::string &key) const;

    /** Pointer to a parameter by name, or nullptr. */
    const Param *find(const std::string &key) const;
};

/**
 * Parse `name[:key=value,...]` into @p out (syntax only — the
 * registry does semantic validation).  On failure returns false and
 * sets @p err to a human-readable message.
 */
bool parseWorkloadSpec(const std::string &text, WorkloadSpec &out,
                       std::string &err);

} // namespace mcd::workload

#endif // MCD_WORKLOAD_SPEC_HH
