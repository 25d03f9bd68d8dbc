#include "selftest.hh"

#include <cstdio>
#include <regex>
#include <set>

#include "harness.hh"
#include "metrics.hh"

namespace perfbench
{

using namespace mcd;

namespace
{

/** Short window so the sweeps below take a few seconds. */
constexpr std::uint64_t TEST_WINDOW = 20'000;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += !ok;
}

void
checkMetricGrammar()
{
    const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> seen;
    bool setup = false;
    for (const auto *table : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricInfo &m : *table) {
            std::string better = m.better;
            expect(std::regex_match(m.name, name) &&
                       std::regex_match(m.unit, unit) &&
                       (better == "higher" || better == "lower") &&
                       seen.insert(m.name).second,
                   std::string("metric ") + m.name + " [" + m.unit + ", " +
                       better + "]");
            setup |= std::string(m.name) == "setup_s" &&
                     std::string(m.unit) == "s" && better == "lower";
        }
    }
    expect(setup, "end-to-end metrics include setup_s [s, lower]");
}

/** @p w cut down to its first @p nbench roster entries, at the test
 *  window. */
Workload
small(Workload w, std::size_t nbench)
{
    w.roster.resize(nbench);
    std::set<std::string> keep(w.roster.begin(), w.roster.end());
    std::vector<SweepCell> cells;
    for (const SweepCell &c : w.cells)
        if (keep.count(c.bench))
            cells.push_back(c);
    w.cells = cells;
    w.window = TEST_WINDOW;
    return w;
}

SweepOutcomes
coldSweep(const Workload &w, unsigned jobs)
{
    Setup s = runSetup(w, configFor(w));
    return runCells(*s.runner, s.valid, w.cells.size(), jobs);
}

void
checkBadCellsCounted()
{
    Workload w;
    w.name = "bad-cells";
    w.window = TEST_WINDOW;
    w.roster = {"gsm_decode", "gen:phases=banana"};
    w.cells = {
        SweepCell::of("gsm_decode", control::PolicySpec::of("baseline")),
        SweepCell::of("gsm_decode", control::PolicySpec::of("nosuchpolicy")),
        SweepCell::of("gsm_decode",
                      control::PolicySpec::of("profile").set("d", "abc")),
        SweepCell::of("gen:phases=banana", control::PolicySpec::of("baseline")),
    };
    Setup s = runSetup(w, configFor(w));
    expect(s.valid.refused.size() == 3 && s.valid.cells.size() == 1,
           "three injected bad cells are refused before the sweep");
    SweepOutcomes got = runCells(*s.runner, s.valid, w.cells.size(), 4);
    Expected pinned;
    if (got.out[0])
        pinned[cellId(w.cells[0])] = outcomeLine(*got.out[0]);
    expect(got.out[0].has_value() &&
               countMismatches(w, got, pinned, nullptr) == 3,
           "the bad cells count as 3 failed of 4, the good one runs");
}

void
checkJobsAgree(const Workload &w)
{
    SweepOutcomes one = coldSweep(w, 1);
    SweepOutcomes four = coldSweep(w, 4);
    Expected ref;
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        if (one.out[i])
            ref[cellId(w.cells[i])] = outcomeLine(*one.out[i]);
    expect(ref.size() == w.cells.size() &&
               sweepDigest(w, one) == sweepDigest(w, four),
           w.name + ": " + std::to_string(w.cells.size()) +
               " cells, digest identical at --jobs 1 and --jobs 4");

    // A changed outcome must be caught.
    Expected tampered = ref;
    std::string &line = tampered.begin()->second;
    line[0] = line[0] == '1' ? '2' : '1';
    expect(countMismatches(w, four, ref, nullptr) == 0 &&
               countMismatches(w, four, tampered, nullptr) == 1,
           w.name + ": one changed outcome is one failed cell");
}

void
checkPinnedCoverage(const std::string &dir)
{
    for (const std::string &name : workloadNames()) {
        Workload w = makeWorkload(name, 0);
        Expected pinned;
        bool loaded = loadPinned(dir + "/" + name + ".txt", pinned);
        std::size_t covered = 0;
        for (const SweepCell &c : w.cells)
            covered += pinned.count(cellId(c));
        expect(loaded && covered == w.cells.size() &&
                   pinned.size() == w.cells.size(),
               name + ": pinned digest covers all " +
                   std::to_string(w.cells.size()) + " cells");
    }
}

} // namespace

int
runSelfTest(const std::string &digest_dir)
{
    failures = 0;
    checkMetricGrammar();
    checkBadCellsCounted();
    checkJobsAgree(small(makeWorkload("headline", 0), 3));
    checkJobsAgree(small(makeWorkload("dsweep", 17), 7));
    checkPinnedCoverage(digest_dir);
    std::printf("%s: %d failed\n", failures ? "FAIL" : "PASS", failures);
    return failures ? 1 : 0;
}

} // namespace perfbench
