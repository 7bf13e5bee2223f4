/**
 * @file
 * The benchmark's own tests: span self-time arithmetic, metric-name
 * rules, and the output check catching a perturbed golden. Exits
 * non-zero on the first failure; run.py runs it after every build.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

#include "check.h"
#include "goldens.h"
#include "metric_names.h"
#include "spans.h"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "perfbench_selftest: FAILED %s\n", what);
        ++failures;
    }
}

/** The rule for a metric name in BENCHMARK.json: 1-64 of [A-Za-z0-9_.-],
 *  starting with a letter or digit. */
bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testReferenceUnits()
{
    // Root [0,10] after a 1 s reference run. Child a [2,4] and child b
    // [5,8] each ran a 0.5 s reference inside the root first. The
    // root's own part is 10 - 2 - 3 - 2 * 0.5 = 4 s at reference 1 s;
    // a and b are 2 s and 3 s at reference 0.5 s. A span of another
    // tree does not count.
    std::vector<SpanRecord> spans = {
        {1, 0, "a", 2.0, 4.0, 0.5},
        {2, 0, "b", 5.0, 8.0, 0.5},
        {0, -1, "job", 0.0, 10.0, 1.0},
        {3, -1, "setup", 11.0, 12.0, 1.0},
    };
    expect(near(referenceUnits(spans, 0), 4.0 + 4.0 + 6.0),
           "reference units of a job");
    expect(near(referenceUnits(spans, 3), 1.0), "a tree of one span");

    bool threw = false;
    spans[1].refSeconds = 0.0;
    try {
        referenceUnits(spans, 0);
    } catch (const std::runtime_error &) {
        threw = true;
    }
    expect(threw, "a part without a reference time is refused");

    const double fft = referenceKernel(SpeedProbe::Fft);
    const double both = referenceKernel(SpeedProbe::FftCrc);
    expect(fft > 0.0 && both > 0.0 && both < 1.0, "reference kernels run");
    expect(referenceKernel(SpeedProbe::Off) == 0.0, "no probe, no time");
}

void
testSelfTime()
{
    // Root [0,10]; children [1,3] and [2,5] overlap (covered once),
    // [8,12] is clipped to the root; a grandchild [1,2] counts
    // against its own parent only. A span from another tree is
    // ignored.
    const std::vector<SpanRecord> spans = {
        {0, -1, "root", 0.0, 10.0}, {1, 0, "a", 1.0, 3.0},
        {2, 0, "b", 2.0, 5.0},      {3, 0, "c", 8.0, 12.0},
        {4, 1, "a", 1.0, 2.0},      {5, -1, "other", 0.0, 1.0},
    };
    const auto self = selfSeconds(spans);
    expect(near(self[0], 4.0), "root self = 10 - |[1,5] u [8,10]|");
    expect(near(self[1], 1.0), "child self excludes its grandchild");
    expect(near(self[2], 3.0), "leaf self = duration");
    expect(near(self[3], 4.0), "a child outliving its parent");
    expect(near(self[5], 1.0), "unrelated root");
    const auto by_name = selfSecondsByName(spans);
    expect(near(by_name.at("a"), 2.0), "self time summed per name");
}

void
testMetricNames()
{
    std::set<std::string> seen;
    for (const auto &spec : kEndToEnd) {
        expect(validMetricName(spec.name), spec.name);
        expect(seen.insert(spec.name).second, "end-to-end name unique");
    }
    for (const auto &spec : kPerLayer) {
        expect(validMetricName(spec.name), spec.name);
        expect(seen.insert(spec.name).second, "per-layer name unique");
    }
    expect(!validMetricName(""), "empty name rejected");
    expect(!validMetricName(".x"), "leading dot rejected");
    expect(!validMetricName("a b"), "space rejected");
    expect(!validMetricName("x/y"), "slash rejected");
    expect(!validMetricName("hub.ingest_s.per_sample|block"),
           "bar rejected");
    expect(!validMetricName(std::string(65, 'a')), "65 letters rejected");
    expect(validMetricName(std::string(64, 'a')), "64 letters accepted");
}

std::vector<CellResult>
cellsOf(const Golden &golden)
{
    std::vector<CellResult> cells;
    for (const auto &[key, value] : golden)
        cells.push_back({key, value, true});
    return cells;
}

void
testGoldenCheck(const Golden &golden, const char *label)
{
    expect(!golden.empty(), label);
    const auto cells = cellsOf(golden);

    OutputCheck clean(&golden);
    expect(clean.check(cells) == 0, "recorded cells match their golden");
    expect(clean.check(cells) == 0, "and repeat deterministically");

    // Perturb one digit of one golden fingerprint.
    Golden perturbed = golden;
    std::string &fp = perturbed.back().second;
    const auto digit = fp.find_last_of("0123456789");
    fp[digit] = fp[digit] == '9' ? '8' : fp[digit] + 1;
    OutputCheck caught(&perturbed);
    expect(caught.check(cells) == 1, "a perturbed golden fails one cell");
    expect(caught.failed() == 1 && caught.attempted() == cells.size(),
           "failed and attempted counts");

    // A golden cell the job stops producing fails too.
    OutputCheck missing(&golden);
    expect(missing.check({cells.begin() + 1, cells.end()}) == 1,
           "a missing golden cell fails");
}

void
testHeldOutSeed()
{
    // No golden: only invariants and repeat determinism.
    std::vector<CellResult> cells = {{"a", "x=1 ", true}, {"b", "y=2 ", true}};
    OutputCheck check(nullptr);
    expect(check.check(cells) == 0, "first iteration sets the reference");
    cells[1].fingerprint = "y=3 ";
    expect(check.check(cells) == 1, "a changed repeat fails its cell");
    cells[1].fingerprint = "y=2 ";
    cells[0].invariantsHold = false;
    expect(check.check(cells) == 1, "a violated invariant fails its cell");
}

} // namespace

int
main()
{
    testSelfTime();
    testReferenceUnits();
    testMetricNames();
    testGoldenCheck(kTable2Golden, "table2 golden recorded");
    testGoldenCheck(kFleetGolden, "fleet golden recorded");
    testHeldOutSeed();
    if (failures == 0)
        std::printf("perfbench_selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
