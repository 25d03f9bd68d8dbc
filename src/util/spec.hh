/**
 * @file
 * The spec engine: the one implementation of the
 * `name[:key=value[,key=value...]]` grammar behind every spec surface
 * in the tree — policy specs (`control::PolicySpec`), workload specs
 * (`workload::WorkloadSpec`) and `--sample` specs
 * (`sim::parseSamplingSpec`).
 *
 * It owns the surface syntax (splitSpec), the parameter list
 * (SpecParams), the schema entries (SpecParamInfo) and the registry
 * (SpecRegistry) that validates a spec against its schema, rewrites
 * it in canonical form and lists every registered name.  A spec is
 * *canonical* once every schema parameter is present in schema
 * order, unset ones at their documented default, each value in its
 * canonical text.  parse -> print -> parse of a canonical spec is the
 * identity, and the canonical string is used verbatim in cache keys,
 * CLI selection and wire labels.  Each grammar keeps only its noun
 * ("policy", "workload", "sampling mode"), its schemas and its typed
 * accessors; a value type the engine cannot name (the context mode)
 * enters as a SpecTextType canonicalizer.
 *
 * Bad input is one catchable error type, SpecError (re-exported as
 * `workload::SpecError`, the name callers catch), from parse to
 * `exp::Runner`.
 */

#ifndef MCD_UTIL_SPEC_HH
#define MCD_UTIL_SPEC_HH

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace mcd::util
{

/** A user-level spec error: bad grammar, unknown name or key,
 *  out-of-range value.  `what()` is a complete, self-contained
 *  message (it lists what *is* known where that helps). */
class SpecError : public std::runtime_error
{
  public:
    explicit SpecError(const std::string &msg) : std::runtime_error(msg)
    {
    }
};

/** One key=value parameter of a spec.  `num` mirrors `text` as a
 *  number (0 when it is not one); canonicalization pins both. */
struct SpecParam
{
    std::string name;
    std::string text;
    double num = 0.0;
};

/** A spec's parameters, in given order (schema order once
 *  canonical). */
class SpecParams
{
  public:
    /** Set a raw textual value (overwrites an existing key). */
    void set(const std::string &key, const std::string &value);
    /** Set a numeric value (3-digit fixed format). */
    void set(const std::string &key, double value);

    /** The parameter named @p key, or nullptr. */
    const SpecParam *find(const std::string &key) const;
    /** The parameter named @p key; throws SpecError if it is absent
     *  (call only on canonical specs). */
    const SpecParam &at(const std::string &key) const;

    /** `name[:key=value,...]` with the values as stored. */
    std::string str(const std::string &name) const;

    std::vector<SpecParam> items;
};

/**
 * Split `name[:key=value[,key=value...]]` into @p name and
 * @p params — the one definition of the grammar's surface syntax
 * (semantic validation is SpecRegistry::canonicalize()).  On failure
 * returns false and sets @p err to a message prefixed
 * "bad <what> '<text>':", where @p what names the grammar
 * ("policy spec", "workload spec").  Rejects non-validSpecName()
 * names, malformed key=value items, and duplicate keys.
 */
bool splitSpec(const std::string &text, const char *what,
               std::string &name, SpecParams &params, std::string &err);

/** The value type of a text parameter. */
struct SpecTextType
{
    /** Listing placeholder: `key=<label>`. */
    const char *label;
    /** What a bad value is said not to be: "'v' is not <expected>". */
    const char *expected;
    /** Rewrite @p v in canonical form; false (and @p v untouched)
     *  if it is not a value of this type. */
    bool (*canonicalize)(std::string &v);
};

/** A [A-Za-z0-9_.-]+ string (validSpecValue()), kept verbatim. */
extern const SpecTextType SPEC_STRING;

/**
 * One schema entry: name, documented default (the value an unset
 * parameter falls back to — never an implicit zero), a one-line help
 * string for the listing and, for numbers, an allowed [min, max]
 * range enforced at canonicalization, so an out-of-range value fails
 * at the CLI, not mid-sweep.
 */
struct SpecParamInfo
{
    std::string name;
    std::string help;
    /** Text parameters: the value type; nullptr for numbers. */
    const SpecTextType *type = nullptr;
    /** Text parameters: the default; empty = required. */
    std::string defaultText;
    double defaultNum = 0.0;
    double min = -1e300;
    double max = 1e300;
    /** Reject fractional values, so values a computation would
     *  truncate to one integer cannot canonicalize to distinct cache
     *  keys. */
    bool integer = false;
    /** Print as a plain integer ("7") instead of the 3-digit fixed
     *  form ("7.000"). */
    bool plain = false;

    /** Named builders — schemas read better and cannot misorder the
     *  positional fields. */
    static SpecParamInfo num(std::string name, double def,
                             std::string help, double min = -1e300,
                             double max = 1e300, bool integer = false);
    /** A whole number printed plainly. */
    static SpecParamInfo count(std::string name, double def,
                               std::string help, double min,
                               double max);
    /** A text value; @p type must outlive the schema (it is a
     *  namespace-scope constant such as SPEC_STRING). */
    static SpecParamInfo text(std::string name, std::string def,
                              std::string help,
                              const SpecTextType &type = SPEC_STRING);

    /** Canonical text of the number @p v. */
    std::string format(double v) const;
    /** Canonical text of the default, as listings print it. */
    std::string canonicalDefault() const;
};

/** A registered name and its schema: a control::Policy, a
 *  workload::WorkloadFactory, a sampling mode. */
class SpecKind
{
  public:
    virtual ~SpecKind() = default;

    /** Registry name, also the spec prefix (e.g. "profile"). */
    virtual const char *name() const = 0;

    /** One-line description for the listing. */
    virtual const char *description() const = 0;

    /** Parameter schema, in canonical order. */
    virtual std::vector<SpecParamInfo> params() const { return {}; }
};

/**
 * Name -> SpecKind table: registration, thread-safe lookup, the
 * name-sorted listing, and canonicalization against each kind's
 * schema.  A bad or duplicate name at add() is a programming error
 * (registration runs from static initializers) and panics.
 */
class SpecRegistry
{
  public:
    /** @p noun names the grammar in messages ("policy"). */
    explicit SpecRegistry(const char *noun) : noun(noun) {}

    void add(std::unique_ptr<const SpecKind> kind);

    /** The kind named @p name, or nullptr. */
    const SpecKind *find(const std::string &name) const;

    /** Every registered kind, sorted by name.  The order is a
     *  contract: listings, unknown-name messages and docs pins all
     *  diff against it (Registries.ListingsAreNameSorted). */
    std::vector<const SpecKind *> list() const;

    /** list(), for a registry whose kinds are all a T. */
    template <class T>
    std::vector<const T *>
    listAs() const
    {
        std::vector<const T *> out;
        for (const SpecKind *k : list())
            out.push_back(static_cast<const T *>(k));
        return out;
    }

    /**
     * Validate @p params against the schema of the kind named
     * @p name and rewrite them in canonical form, caching each typed
     * value next to its canonical text.  Throws SpecError on an
     * unknown name (listing every registered one), an unknown
     * parameter (listing the schema) or a bad value; @p params is
     * untouched then.
     */
    const SpecKind &canonicalize(const std::string &name,
                                 SpecParams &params) const;

    /** The `--list-*` text: per kind its name (padded to
     *  @p name_width) and description, then each parameter with its
     *  type and canonical default. */
    std::string describe(std::size_t name_width) const;

  private:
    const char *noun;
    mutable std::mutex m;
    std::map<std::string, std::unique_ptr<const SpecKind>> kinds;
};

} // namespace mcd::util

#endif // MCD_UTIL_SPEC_HH
