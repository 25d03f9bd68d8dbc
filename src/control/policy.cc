#include "control/policy.hh"

#include <cctype>

#include "sim/checkpoint.hh"
#include "util/logging.hh"
#include "workload/suite.hh"

namespace mcd::control
{

// ---------------------------------------------------------------- //
// Formatting / parsing helpers                                     //
// ---------------------------------------------------------------- //

const char *
compactModeName(core::ContextMode m)
{
    switch (m) {
      case core::ContextMode::LFCP: return "LFCP";
      case core::ContextMode::LFP: return "LFP";
      case core::ContextMode::FCP: return "FCP";
      case core::ContextMode::FP: return "FP";
      case core::ContextMode::LF: return "LF";
      case core::ContextMode::F: return "F";
    }
    return "?";
}

bool
parseContextMode(const std::string &text, core::ContextMode &m)
{
    // Accept the compact form case-insensitively and the printable
    // "L+F+C+P" form.
    std::string t;
    for (char c : text)
        if (c != '+')
            t.push_back(static_cast<char>(
                std::toupper(static_cast<unsigned char>(c))));
    const core::ContextMode all[] = {
        core::ContextMode::LFCP, core::ContextMode::LFP,
        core::ContextMode::FCP,  core::ContextMode::FP,
        core::ContextMode::LF,   core::ContextMode::F,
    };
    for (core::ContextMode cand : all) {
        if (t == compactModeName(cand)) {
            m = cand;
            return true;
        }
    }
    return false;
}

namespace
{

bool
canonicalMode(std::string &v)
{
    core::ContextMode m = core::ContextMode::LF;
    if (!parseContextMode(v, m))
        return false;
    v = compactModeName(m);
    return true;
}

/** The engine behind PolicyRegistry.  Leaked: policies registered
 *  from static initializers must stay valid through program exit in
 *  any TU order. */
util::SpecRegistry &
policies()
{
    static util::SpecRegistry *reg = new util::SpecRegistry("policy");
    return *reg;
}

} // namespace

const util::SpecTextType CONTEXT_MODE = {
    "mode", "a context mode (LFCP|LFP|FCP|FP|LF|F)", canonicalMode};

// ---------------------------------------------------------------- //
// PolicySpec                                                       //
// ---------------------------------------------------------------- //

PolicySpec &
PolicySpec::set(const std::string &key, core::ContextMode mode)
{
    return set(key, std::string(compactModeName(mode)));
}

core::ContextMode
PolicySpec::mode(const std::string &key) const
{
    core::ContextMode m = core::ContextMode::LF;
    parseContextMode(params.at(key).text, m);
    return m;
}

bool
parseSpec(const std::string &text, PolicySpec &out, std::string &err)
{
    out = PolicySpec();
    return util::splitSpec(text, "policy spec", out.policy, out.params,
                           err);
}

PolicySpec
canonicalPolicySpec(const std::string &text)
{
    PolicySpec spec;
    std::string err;
    if (!parseSpec(text, spec, err))
        throw util::SpecError(err);
    return canonicalPolicySpec(std::move(spec));
}

PolicySpec
canonicalPolicySpec(PolicySpec spec)
{
    policies().canonicalize(spec.policy, spec.params);
    return spec;
}

// ---------------------------------------------------------------- //
// Policy                                                           //
// ---------------------------------------------------------------- //

std::string
Policy::contextKey(const PolicyContext &ctx) const
{
    return strprintf("w%llu",
                     (unsigned long long)ctx.productionWindow);
}

// ---------------------------------------------------------------- //
// PolicyRegistry                                                   //
// ---------------------------------------------------------------- //

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry reg;
    return reg;
}

void
PolicyRegistry::add(std::unique_ptr<const Policy> p)
{
    policies().add(std::move(p));
}

const Policy *
PolicyRegistry::find(const std::string &name) const
{
    return static_cast<const Policy *>(policies().find(name));
}

std::vector<const Policy *>
PolicyRegistry::list() const
{
    return policies().listAs<Policy>();
}

bool
PolicyRegistry::canonicalize(PolicySpec &spec, std::string &err) const
{
    try {
        policies().canonicalize(spec.policy, spec.params);
        return true;
    } catch (const util::SpecError &e) {
        err = e.what();
        return false;
    }
}

PolicyRegistrar::PolicyRegistrar(std::unique_ptr<const Policy> p)
{
    PolicyRegistry::instance().add(std::move(p));
}

std::string
describePolicies()
{
    return policies().describe(10);
}

std::shared_ptr<const sim::CheckpointSet>
checkpointsFor(const PolicyContext &ctx, const std::string &bench)
{
    if (!ctx.sim.sampling.sampled())
        return nullptr;
    return sharedArtifact<sim::CheckpointSet>(ctx, "ckpt|" + bench, [&] {
        // The set's functional state points into the Program, so the
        // set keeps the whole Benchmark alive through an aliasing
        // pointer.
        auto bm = std::make_shared<workload::Benchmark>(
            workload::makeBenchmark(bench));
        std::shared_ptr<const workload::Program> prog(bm, &bm->program);
        return sim::CheckpointSet::build(prog, bm->ref, ctx.sim,
                                         ctx.productionWindow);
    });
}

} // namespace mcd::control
