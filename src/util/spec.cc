#include "util/spec.hh"

#include <algorithm>
#include <cmath>
#include <locale>
#include <sstream>

#include "util/logging.hh"
#include "util/text.hh"

namespace mcd::util
{

namespace
{

bool
canonicalString(std::string &v)
{
    return validSpecValue(v);
}

/** A range bound as messages print it (classic-locale stream
 *  default: "1e+12", "0.5"). */
std::string
boundText(double x)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << x;
    return os.str();
}

} // namespace

const SpecTextType SPEC_STRING = {"string", "a [A-Za-z0-9_.-]+ value",
                                  canonicalString};

// ---------------------------------------------------------------- //
// SpecParams                                                       //
// ---------------------------------------------------------------- //

void
SpecParams::set(const std::string &key, const std::string &value)
{
    auto it = std::find_if(items.begin(), items.end(),
                           [&](const SpecParam &p) {
                               return p.name == key;
                           });
    if (it == items.end())
        it = items.insert(items.end(), SpecParam{key, "", 0.0});
    it->text = value;
    // Keep the numeric mirror in sync (best effort before
    // canonicalization pins it), so a set() on an already canonical
    // spec cannot leave num returning a stale previous value.
    it->num = 0.0;
    parseDouble(value, it->num);
}

void
SpecParams::set(const std::string &key, double value)
{
    set(key, fmtFixed(value, 3));
}

const SpecParam *
SpecParams::find(const std::string &key) const
{
    for (const SpecParam &p : items)
        if (p.name == key)
            return &p;
    return nullptr;
}

const SpecParam &
SpecParams::at(const std::string &key) const
{
    if (const SpecParam *p = find(key))
        return *p;
    throw SpecError("spec has no parameter '" + key +
                    "' (not canonical?)");
}

std::string
SpecParams::str(const std::string &name) const
{
    std::string s = name;
    for (std::size_t i = 0; i < items.size(); ++i) {
        s += i == 0 ? ':' : ',';
        s += items[i].name;
        s += '=';
        s += items[i].text;
    }
    return s;
}

bool
splitSpec(const std::string &text, const char *what, std::string &name,
          SpecParams &params, std::string &err)
{
    params.items.clear();
    auto bad = [&](const std::string &why) {
        err = "bad " + std::string(what) + " '" + text + "': " + why;
        return false;
    };
    std::size_t colon = text.find(':');
    name = text.substr(0, colon);
    if (!validSpecName(name))
        return bad("expected name[:key=value,...] with a "
                   "[a-z0-9_-]+ name");
    if (colon == std::string::npos)
        return true;
    std::string rest = text.substr(colon + 1);
    std::size_t start = 0;
    for (;;) {
        std::size_t comma = rest.find(',', start);
        std::string item = rest.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size())
            return bad("parameter '" + item +
                       "' is not of the form key=value");
        std::string key = item.substr(0, eq);
        if (params.find(key))
            return bad("parameter '" + key + "' given twice");
        params.set(key, item.substr(eq + 1));
        if (comma == std::string::npos)
            return true;
        start = comma + 1;
    }
}

// ---------------------------------------------------------------- //
// SpecParamInfo                                                    //
// ---------------------------------------------------------------- //

SpecParamInfo
SpecParamInfo::num(std::string name, double def, std::string help,
                   double min, double max, bool integer)
{
    SpecParamInfo p;
    p.name = std::move(name);
    p.help = std::move(help);
    p.defaultNum = def;
    p.min = min;
    p.max = max;
    p.integer = integer;
    return p;
}

SpecParamInfo
SpecParamInfo::count(std::string name, double def, std::string help,
                     double min, double max)
{
    SpecParamInfo p =
        num(std::move(name), def, std::move(help), min, max, true);
    p.plain = true;
    return p;
}

SpecParamInfo
SpecParamInfo::text(std::string name, std::string def,
                    std::string help, const SpecTextType &type)
{
    SpecParamInfo p;
    p.name = std::move(name);
    p.help = std::move(help);
    p.type = &type;
    p.defaultText = std::move(def);
    return p;
}

std::string
SpecParamInfo::format(double v) const
{
    return plain ? strprintf("%lld", static_cast<long long>(v))
                 : fmtFixed(v, 3);
}

std::string
SpecParamInfo::canonicalDefault() const
{
    return type ? defaultText : format(defaultNum);
}

// ---------------------------------------------------------------- //
// SpecRegistry                                                     //
// ---------------------------------------------------------------- //

void
SpecRegistry::add(std::unique_ptr<const SpecKind> kind)
{
    std::string name = kind->name();
    if (!validSpecName(name))
        panic("%s name '%s' is not [a-z0-9_-]+", noun, name.c_str());
    std::lock_guard<std::mutex> l(m);
    if (!kinds.emplace(name, std::move(kind)).second)
        panic("duplicate %s registration '%s'", noun, name.c_str());
}

const SpecKind *
SpecRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> l(m);
    auto it = kinds.find(name);
    return it == kinds.end() ? nullptr : it->second.get();
}

std::vector<const SpecKind *>
SpecRegistry::list() const
{
    std::lock_guard<std::mutex> l(m);
    std::vector<const SpecKind *> out;
    out.reserve(kinds.size());
    // std::map iterates in name order.
    for (const auto &kv : kinds)
        out.push_back(kv.second.get());
    return out;
}

const SpecKind &
SpecRegistry::canonicalize(const std::string &name,
                           SpecParams &params) const
{
    auto fail = [&](const std::string &why) {
        throw SpecError(std::string(noun) + " '" + name + "'" + why);
    };
    const SpecKind *kind = find(name);
    if (!kind) {
        std::string err = "unknown " + std::string(noun) + " '" +
                          name + "'";
        std::vector<const SpecKind *> known = list();
        if (!known.empty()) {
            err += " (known:";
            for (const SpecKind *k : known) {
                err += ' ';
                err += k->name();
            }
            err += ')';
        }
        throw SpecError(err);
    }
    std::vector<SpecParamInfo> schema = kind->params();
    for (const SpecParam &given : params.items) {
        if (std::none_of(schema.begin(), schema.end(),
                         [&](const SpecParamInfo &pi) {
                             return pi.name == given.name;
                         })) {
            std::string takes;
            for (const SpecParamInfo &pi : schema)
                takes += ' ' + pi.name;
            fail(" has no parameter '" + given.name + "' (takes" +
                 (schema.empty() ? std::string(" none") : ':' + takes) +
                 ')');
        }
    }
    // Rebuild the list in schema order, falling back to the
    // documented default for anything unset.
    SpecParams canon;
    canon.items.reserve(schema.size());
    for (const SpecParamInfo &pi : schema) {
        const SpecParam *given = params.find(pi.name);
        SpecParam out{pi.name, "", 0.0};
        auto at = [&] { return " parameter '" + pi.name + "'"; };
        if (pi.type) {
            out.text = given ? given->text : pi.defaultText;
            if (out.text.empty())
                fail(at() + " is required");
            if (!pi.type->canonicalize(out.text))
                fail(at() + ": '" + out.text + "' is not " +
                     pi.type->expected);
        } else {
            double v = pi.defaultNum;
            if (given && !parseDouble(given->text, v))
                fail(at() + ": '" + given->text + "' is not a number");
            // NaN fails both comparisons, so it is rejected too.
            if (!(v >= pi.min && v <= pi.max))
                fail(at() + ": " + boundText(v) + " is out of range [" +
                     boundText(pi.min) + ", " + boundText(pi.max) +
                     "]");
            if (pi.integer && v != std::floor(v))
                fail(at() + ": '" + (given ? given->text : "") +
                     "' must be an integer");
            // The typed value is re-parsed from the canonical text, so
            // the cache key and the computation can never disagree.
            out.text = pi.format(v);
            parseDouble(out.text, out.num);
        }
        canon.items.push_back(std::move(out));
    }
    params = std::move(canon);
    return *kind;
}

std::string
SpecRegistry::describe(std::size_t name_width) const
{
    std::string out;
    for (const SpecKind *k : list()) {
        std::string name = k->name();
        name.resize(std::max(name.size(), name_width), ' ');
        out += "  " + name + ' ' + k->description() + '\n';
        for (const SpecParamInfo &pi : k->params()) {
            out += "      " + pi.name + "=<" +
                   (pi.type ? pi.type->label : "number") + '>';
            out += pi.type && pi.defaultText.empty()
                       ? " (required)"
                       : " (default " + pi.canonicalDefault() + ')';
            out += ": " + pi.help + '\n';
        }
    }
    return out;
}

} // namespace mcd::util
