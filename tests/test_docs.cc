/**
 * @file
 * Documentation drift gates: docs/POLICIES.md must cover every
 * registered policy with its full parameter schema (verified
 * against the same `describePolicies()` text `--list-policies`
 * prints), and docs/WORKLOADS.md must cover every registered
 * workload family and every generator parameter, and docs/SERVER.md
 * must track the wire protocol's verbs, error codes and the real
 * `srv::ServerConfig` defaults.  A new policy, parameter, knob or
 * error code without a docs section fails here, not in review.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "chip/chip.hh"
#include "chip/config.hh"
#include "control/policy.hh"
#include "sim/sampling.hh"
#include "srv/proto.hh"
#include "srv/server.hh"
#include "util/spec.hh"
#include "util/text.hh"
#include "workload/generate.hh"
#include "workload/registry.hh"

namespace
{

std::string
readDoc(const std::string &rel)
{
    std::string path = std::string(MCD_SOURCE_DIR) + "/" + rel;
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(Docs, PoliciesDocCoversTheRegistry)
{
    std::string doc = readDoc("docs/POLICIES.md");
    for (const mcd::control::Policy *p :
         mcd::control::PolicyRegistry::instance().list()) {
        // One "## `name`" section per policy...
        EXPECT_NE(doc.find("## `" + std::string(p->name()) + "`"),
                  std::string::npos)
            << "docs/POLICIES.md lacks a section for policy '"
            << p->name() << "'";
        // ...documenting every schema parameter with its canonical
        // default, exactly as --list-policies prints it.
        for (const mcd::control::ParamInfo &pi : p->params()) {
            std::string needle =
                "`" + pi.name + "` | " + pi.canonicalDefault();
            EXPECT_NE(doc.find(needle), std::string::npos)
                << "docs/POLICIES.md: policy '" << p->name()
                << "' parameter row '" << needle
                << "' missing or stale";
        }
    }
    // globalDvsMatch runs the MCD core with every domain at one
    // frequency, not the single-clock configuration.  Line breaks
    // are folded to spaces so a reflow does not trip the pin.
    std::replace(doc.begin(), doc.end(), '\n', ' ');
    EXPECT_NE(doc.find("It keeps the MCD substrate, with all four "
                       "domains at one frequency"),
              std::string::npos)
        << "docs/POLICIES.md's `global` section no longer says what "
           "globalDvsMatch runs";
}

TEST(Docs, WorkloadsDocCoversTheRegistry)
{
    std::string doc = readDoc("docs/WORKLOADS.md");
    // Every registered family (the 19 suite names share one
    // section; gen and prog get their own).
    EXPECT_NE(doc.find("## Suite benchmarks"), std::string::npos);
    EXPECT_NE(doc.find("## `gen`"), std::string::npos);
    EXPECT_NE(doc.find("`prog`"), std::string::npos);
    for (const mcd::workload::WorkloadFactory *f :
         mcd::workload::WorkloadRegistry::instance().list())
        EXPECT_NE(doc.find("`" + std::string(f->name()) + "`"),
                  std::string::npos)
            << "docs/WORKLOADS.md does not mention workload '"
            << f->name() << "'";
    // Every generator knob, with its canonical default.
    for (const mcd::workload::SpecParamInfo &pi :
         mcd::workload::generatorParams()) {
        std::string needle = "`" + pi.name + "` | " + pi.canonicalDefault();
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "docs/WORKLOADS.md: generator knob row '" << needle
            << "' missing or stale";
    }
}

TEST(Docs, ServerDocCoversProtocolAndKnobs)
{
    std::string doc = readDoc("docs/SERVER.md");
    // The protocol tag, every verb and every reply kind.
    EXPECT_NE(doc.find(mcd::srv::PROTO_TAG), std::string::npos);
    for (const char *verb : {"`HELLO`", "`PING`", "`STATS`",
                             "`SWEEP`", "`PROG`", "`QUIT`"})
        EXPECT_NE(doc.find(verb), std::string::npos)
            << "docs/SERVER.md lacks verb " << verb;
    for (const char *kind :
         {"\"OK\"", "\"ROW\"", "\"DONE\"", "\"ERR\"", "\"BYE\""})
        EXPECT_NE(doc.find(kind), std::string::npos)
            << "docs/SERVER.md grammar lacks reply kind " << kind;
    // Every structured error code, one table row each.
    for (const std::string &code : mcd::srv::errorCodes())
        EXPECT_NE(doc.find("| `" + code + "` |"),
                  std::string::npos)
            << "docs/SERVER.md lacks error code '" << code << "'";
    // Every knob row carries the struct's real default, so the doc
    // cannot drift from src/srv/server.hh.
    mcd::srv::ServerConfig def;
    auto row = [](const char *name, const std::string &value) {
        return "| `" + std::string(name) + "` | " + value + " |";
    };
    for (const std::string &needle : {
             row("tcpPort", std::to_string(def.tcpPort)),
             row("queueLimit", std::to_string(def.queueLimit)),
             row("maxCellsPerRequest",
                 std::to_string(def.maxCellsPerRequest)),
             row("maxConnections",
                 std::to_string(def.maxConnections)),
             row("requestTimeoutMs",
                 std::to_string(def.requestTimeoutMs)),
             row("idleTimeoutMs",
                 std::to_string(def.idleTimeoutMs)),
             row("maxLineBytes", std::to_string(def.maxLineBytes)),
             row("maxProgLines", std::to_string(def.maxProgLines)),
             row("retryAfterMs", std::to_string(def.retryAfterMs)),
             row("maxWindows", std::to_string(def.maxWindows)),
         })
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "docs/SERVER.md knob row '" << needle
            << "' missing or stale";
}

TEST(Docs, ChipDocCoversTopologyAndKnobs)
{
    std::string doc = readDoc("docs/CHIP.md");
    // Every ChipConfig knob row carries the struct's real default,
    // so the doc cannot drift from src/chip/config.hh.
    mcd::chip::ChipConfig def;
    auto row = [](const char *name, const std::string &value) {
        return "| `" + std::string(name) + "` | " + value + " |";
    };
    for (const std::string &needle : {
             row("l2PortCycles", std::to_string(def.l2PortCycles)),
             row("uncoreMaxMhz",
                 mcd::util::fmtFixed(def.uncoreMaxMhz, 3)),
             row("uncoreMinMhz",
                 mcd::util::fmtFixed(def.uncoreMinMhz, 3)),
             row("coordIntervalPs",
                 std::to_string(def.coordIntervalPs)),
             row("uncoreClockPj",
                 mcd::util::fmtFixed(def.uncoreClockPj, 3)),
             row("uncoreLeakW",
                 mcd::util::fmtFixed(def.uncoreLeakW, 3)),
         })
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "docs/CHIP.md knob row '" << needle
            << "' missing or stale";
    // The co-schedule grammar, the wire row labels and the chip
    // cache-key field must be spelled out.
    for (const char *token : {"`multi:", ",t1=", "tile=u",
                              "chip:tiles=", "`chip-coord"})
        EXPECT_NE(doc.find(token), std::string::npos)
            << "docs/CHIP.md lacks '" << token << "'";
    // Every coordinator parameter row carries its canonical default,
    // read off the default spec's canonical text.
    std::string canon = mcd::chip::parseCoordSpec("chip-coord").canonSpec;
    std::string name, err;
    mcd::util::SpecParams params;
    ASSERT_TRUE(mcd::util::splitSpec(canon, "coordinator spec", name,
                                     params, err))
        << err;
    for (const mcd::util::SpecParam &p : params.items)
        EXPECT_NE(doc.find(row(p.name.c_str(), p.text)),
                  std::string::npos)
            << "docs/CHIP.md: coordinator parameter row '" << p.name
            << "' missing or stale (canonical default " << canon
            << ")";
}

TEST(Docs, LintingDocCoversEveryRule)
{
    // The three-way sync behind mcd_lint's `lint-docs` rule: this
    // list, tools/mcd_lint.py RULES and the `## \`rule\`` sections
    // of docs/LINTING.md must all name the same invariants.  Adding
    // or retiring a rule without touching all three fails either
    // here or in the lint itself.
    const char *rules[] = {
        "fingerprint-complete", "cache-version-pin", "determinism",
        "locale-safety",        "registration",      "library-exit",
        "lint-docs",
    };
    std::string doc = readDoc("docs/LINTING.md");
    std::string lint = readDoc("tools/mcd_lint.py");
    for (const char *rule : rules) {
        EXPECT_NE(doc.find("## `" + std::string(rule) + "`"),
                  std::string::npos)
            << "docs/LINTING.md lacks a section for lint rule '"
            << rule << "'";
        EXPECT_NE(lint.find("\"" + std::string(rule) + "\""),
                  std::string::npos)
            << "tools/mcd_lint.py no longer enforces rule '" << rule
            << "' pinned here and in docs/LINTING.md";
    }
    // The suppression grammar documented in the doc is the one the
    // tool parses.
    EXPECT_NE(doc.find("mcd-lint: allow("), std::string::npos);
    EXPECT_NE(doc.find("mcd-lint: allow-file("), std::string::npos);
}

TEST(Docs, WorkloadsDocGrammarSectionsExist)
{
    std::string doc = readDoc("docs/WORKLOADS.md");
    // The authoring grammar's section vocabulary must be documented
    // one for one.
    for (const char *section :
         {"`program:`", "`input:`", "`mix:`", "`func:`", "`args:`",
          "`block:`", "`loop:`", "`call:`"})
        EXPECT_NE(doc.find(section), std::string::npos)
            << "docs/WORKLOADS.md lacks grammar docs for "
            << section;
}

TEST(Docs, SamplingDocTracksTheRealKnobsAndSchema)
{
    std::string doc = readDoc("docs/SAMPLING.md");
    // Every knob row carries the struct's real default, so the doc
    // cannot drift from src/sim/sampling.hh.
    mcd::sim::SamplingConfig def;
    auto row = [](const char *name, const std::string &value) {
        return "| `" + std::string(name) + "` | " + value + " |";
    };
    for (const std::string &needle : {
             row("intervalInstrs",
                 std::to_string(def.intervalInstrs)),
             row("sampleInstrs", std::to_string(def.sampleInstrs)),
             row("warmupInstrs", std::to_string(def.warmupInstrs)),
             row("ciBiasPct",
                 mcd::util::fmtFixed(def.ciBiasPct, 3)),
         })
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "docs/SAMPLING.md knob row '" << needle
            << "' missing or stale";
    // The canonical default sampled spelling printed in the doc is
    // the one canonicalSamplingSpec emits.
    mcd::sim::SamplingConfig sampled = def;
    sampled.mode = mcd::sim::SamplingMode::Sampled;
    EXPECT_NE(doc.find(mcd::sim::canonicalSamplingSpec(sampled)),
              std::string::npos)
        << "docs/SAMPLING.md lacks the canonical default spec";
    // The contract vocabulary the tests and CI gate rely on.
    for (const char *token :
         {"byte-identical", "`exact`", "ciBiasPct",
          "tools/check_sampling.py", "`matches()`"})
        EXPECT_NE(doc.find(token), std::string::npos)
            << "docs/SAMPLING.md lacks '" << token << "'";
}

TEST(Docs, ArchitectureDocTracksTheCacheSchemaVersion)
{
    std::string doc = readDoc("docs/ARCHITECTURE.md");
    // The CACHE_VERSION history table must have a row for the live
    // schema (v9: learned training knobs fingerprinted) and keep the
    // prior rows intact.
    EXPECT_NE(doc.find("| v9 | PR 10 (learned policy + "
                       "tournament) |"),
              std::string::npos)
        << "docs/ARCHITECTURE.md lacks the v9 history row";
    EXPECT_NE(doc.find("| v8 | PR 9 (sampled + checkpointed "
                       "simulation) |"),
              std::string::npos)
        << "docs/ARCHITECTURE.md lacks the v8 history row";
    for (const char *token :
         {"thirteen", "timeCiPs", "SAMPLING.md",
          "control::LearnedConfig"})
        EXPECT_NE(doc.find(token), std::string::npos)
            << "docs/ARCHITECTURE.md lacks '" << token << "'";
}
