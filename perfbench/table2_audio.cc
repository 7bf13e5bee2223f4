/**
 * @file
 * table2_audio: the paper's Table 2 job, called the way
 * bench_table2_audio_power calls the library. Set-up synthesizes the
 * three-environment audio corpus and compiles the Sidewinder
 * conditions once; the compile stands in for the one simulate()
 * repeats inside every cell. The job calibrates the Predefined
 * Activity threshold per app on the calling thread, then fans the
 * Oracle / PA / Sidewinder simulate cells (app x strategy x trace)
 * across the pool. Nearly all of its
 * Sidewinder time is per-sample, FFT-heavy engine ingest, and the
 * calibration is serial, so this is the workload a faster execution
 * path or a single simulation driver must move.
 */

#include <cmath>

#include "apps/apps.h"
#include "bench.h"
#include "goldens.h"
#include "sim/calibrate.h"
#include "spans.h"
#include "trace/audio_gen.h"

namespace perfbench {

using namespace sidewinder;

namespace {

/** Trace length: long enough for every app to see its events several
 *  times, short enough for many iterations per run. */
constexpr double kTraceSeconds = 120.0;

const std::vector<double> kCandidates = {0.05, 0.07, 0.09,
                                         0.12, 0.16, 0.22};

/** One Table 2 row, with the paper's values for siren / music /
 *  phrase, mW. */
struct Mechanism
{
    const char *label;
    const char *span;
    sim::Strategy strategy;
    double paperMw[3];
};

/** Heaviest first, so the pool's last cells are the short ones. */
const Mechanism kMechanisms[] = {
    {"sw", "sim.simulate_s.sw", sim::Strategy::Sidewinder,
     {63.1, 32.3, 35.6}},
    {"pa", "sim.simulate_s.pa", sim::Strategy::PredefinedActivity,
     {51.9, 51.9, 51.9}},
    {"oracle", "sim.simulate_s.oracle", sim::Strategy::Oracle,
     {16.8, 27.2, 14.7}},
};

class Table2Audio final : public Workload
{
  public:
    Table2Audio(std::uint64_t seed_, support::ThreadPool &pool_)
        : seed(seed_), pool(pool_), apps(apps::audioApps())
    {
    }

    void
    teardown() override
    {
        traces.clear();
    }

    void
    setup() override
    {
        {
            Span span("trace.synth_s");
            traces = trace::generateAudioCorpus(kTraceSeconds,
                                                deriveSeed(seed, 1));
        }
        conditions.clear();
        compiledOk = true;
        for (const auto &app : apps) {
            const auto channels = app->channels();
            conditions.push_back(
                {app->name(),
                 compileCondition(app->wakeCondition(), channels,
                                  compiledOk),
                 channels});
        }
    }

    std::vector<CellResult>
    runJob() override
    {
        std::vector<CellResult> cells;
        std::vector<double> thresholds;
        for (const auto &app : apps) {
            sim::CalibrationResult calibration;
            {
                Span span("sim.calibrate_s");
                calibration = sim::calibratePredefinedThreshold(
                    traces, *app, kCandidates);
            }
            thresholds.push_back(calibration.threshold);
            CellResult cell;
            cell.key = app->name() + "/pa_threshold";
            addField(cell.fingerprint, "threshold", calibration.threshold);
            addField(cell.fingerprint, "power_mw",
                     calibration.averagePowerMw);
            addField(cell.fingerprint, "full_recall",
                     std::uint64_t{calibration.achievedFullRecall});
            cell.invariantsHold = compiledOk;
            cells.push_back(cell);
        }

        // Cell i: mechanism-major, then app, then trace.
        const std::size_t per_mechanism = apps.size() * traces.size();
        const std::size_t count = 3 * per_mechanism;
        const auto mechanismOf = [&](std::size_t i) {
            return i / per_mechanism;
        };
        const auto appOf = [&](std::size_t i) {
            return i / traces.size() % apps.size();
        };
        const auto traceOf = [&](std::size_t i) { return i % traces.size(); };

        std::vector<sim::SimResult> results(count);
        const int parent = currentSpan();
        pool.parallelFor(0, count, [&](std::size_t i) {
            const Mechanism &m = kMechanisms[mechanismOf(i)];
            sim::SimConfig config;
            config.strategy = m.strategy;
            if (m.strategy == sim::Strategy::PredefinedActivity)
                config.predefinedThreshold = thresholds[appOf(i)];
            Span span(m.span, parent);
            results[i] = sim::simulate(traces[traceOf(i)], *apps[appOf(i)],
                                       config);
        });

        for (auto &row : meanMw)
            for (double &mw : row)
                mw = 0.0;
        for (std::size_t i = 0; i < count; ++i) {
            meanMw[mechanismOf(i)][appOf(i)] +=
                results[i].averagePowerMw /
                static_cast<double>(traces.size());
            cells.push_back(simCell(apps[appOf(i)]->name() + "/" +
                                        kMechanisms[mechanismOf(i)].label +
                                        "/" + traces[traceOf(i)].name,
                                    results[i], kTraceSeconds));
        }
        return cells;
    }

    SpeedProbe
    speedProbe() const override
    {
        return SpeedProbe::Fft;
    }

    double
    simulatedSecondsPerJob() const override
    {
        return kTraceSeconds * 3.0 * static_cast<double>(apps.size()) *
               static_cast<double>(traces.size());
    }

    const Golden *
    golden() const override
    {
        return seed == kDefaultSeed ? &kTable2Golden : nullptr;
    }

    void
    layerMetrics(Metrics &out) override
    {
        // Mean relative error of the nine Table 2 cells against the
        // paper, at this benchmark's trace length.
        double err = 0.0;
        for (int m = 0; m < 3; ++m)
            for (int a = 0; a < 3; ++a)
                err += std::fabs(meanMw[m][a] - kMechanisms[m].paperMw[a]) /
                       kMechanisms[m].paperMw[a];
        out["sim.table2_err_pct"] = {100.0 * err / 9.0, "%"};
        double samples = 0.0;
        for (const auto &t : traces)
            samples += static_cast<double>(t.sampleCount() *
                                           t.channels.size());
        out["trace.samples"] = {samples, "count"};
    }

    IngestPass
    ingestProbe() override
    {
        std::vector<const trace::Trace *> views;
        for (const auto &t : traces)
            views.push_back(&t);
        return hubIngestProbe(conditions, views);
    }

  private:
    std::uint64_t seed;
    support::ThreadPool &pool;
    std::vector<std::unique_ptr<apps::Application>> apps;
    std::vector<trace::Trace> traces;
    std::vector<ProbeCondition> conditions;
    bool compiledOk = true;
    /** Last job's mean power per [mechanism][app], mW, in
     *  kMechanisms order. */
    double meanMw[3][3] = {};
};

} // namespace

std::unique_ptr<Workload>
makeTable2Audio(std::uint64_t seed, support::ThreadPool &pool)
{
    return std::make_unique<Table2Audio>(seed, pool);
}

} // namespace perfbench
