/**
 * @file
 * supervised_link: the fig5 robot steps workload through
 * sim::simulateSupervised, fanned across the pool over a fault grid:
 * byte corruption from 1e-4 to 1e-2 (across the 2e-3 -> 5e-3 recall
 * cliff), hub resets, live reconfiguration updates, and a few
 * combinations. Engine work is a small share of a faulted replay, so
 * this workload isolates UART framing, ARQ, heartbeats, re-push and
 * the A/B swap. Its outcomes are not golden-checked: liveness fixes
 * are meant to change them. Repeat determinism and the model's
 * invariants are checked instead.
 */

#include <algorithm>

#include "apps/apps.h"
#include "bench.h"
#include "sim/faults.h"
#include "spans.h"
#include "trace/robot_gen.h"

namespace perfbench {

using namespace sidewinder;

namespace {

constexpr double kTraceSeconds = 600.0;

/** Corruption levels with their metric-name tags. */
const std::pair<double, const char *> kCorruption[] = {
    {1e-4, "1e-4"}, {3e-4, "3e-4"}, {1e-3, "1e-3"}, {2e-3, "2e-3"},
    {3e-3, "3e-3"}, {5e-3, "5e-3"}, {7e-3, "7e-3"}, {1e-2, "1e-2"},
};

struct GridCell
{
    std::string key;
    sim::FaultPlan plan;
};

std::vector<double>
evenlySpaced(int count)
{
    std::vector<double> times;
    for (int i = 1; i <= count; ++i)
        times.push_back(kTraceSeconds * i / (count + 1));
    return times;
}

std::vector<sim::ReconfigUpdate>
updates(int count)
{
    std::vector<sim::ReconfigUpdate> out;
    int i = 0;
    for (double t : evenlySpaced(count))
        out.push_back({t, i++ % 2 == 0 ? 1.2 : 0.8});
    return out;
}

/** The 24-cell grid; fault draws seeded from the workload seed. */
std::vector<GridCell>
faultGrid(std::uint64_t seed)
{
    std::vector<GridCell> grid;
    const auto add = [&](std::string key, double corruption, int resets,
                         int update_count, double update_corruption) {
        GridCell cell;
        cell.key = std::move(key);
        cell.plan.byteCorruptionRate = corruption;
        cell.plan.hubResetTimes = evenlySpaced(resets);
        cell.plan.hubResetDowntimeSeconds = 10.0;
        cell.plan.reconfigUpdates = updates(update_count);
        cell.plan.updateCorruptionRate = update_corruption;
        cell.plan.seed = deriveSeed(seed, 100 + grid.size());
        grid.push_back(cell);
    };
    for (const auto &[rate, tag] : kCorruption)
        add(std::string("corrupt_") + tag, rate, 0, 0, 0.0);
    for (int resets : {1, 2, 4})
        add("resets_" + std::to_string(resets), 0.0, resets, 0, 0.0);
    for (int n : {1, 2, 4}) {
        add("reconfig_" + std::to_string(n), 0.0, 0, n, 0.0);
        add("reconfig_" + std::to_string(n) + "_corrupt_2e-3", 0.0, 0, n,
            2e-3);
    }
    add("corrupt_1e-3+resets_2", 1e-3, 2, 0, 0.0);
    add("corrupt_5e-3+resets_2", 5e-3, 2, 0, 0.0);
    add("corrupt_2e-3+reconfig_2", 2e-3, 0, 2, 0.0);
    add("corrupt_3e-3+reconfig_4", 3e-3, 0, 4, 0.0);
    add("resets_2+reconfig_2", 0.0, 2, 2, 0.0);
    add("resets_4+corrupt_2e-3", 2e-3, 4, 0, 0.0);
    add("resets_1+reconfig_1", 0.0, 1, 1, 0.0);
    return grid;
}

class SupervisedLink final : public Workload
{
  public:
    SupervisedLink(std::uint64_t seed_, support::ThreadPool &pool_)
        : seed(seed_), pool(pool_), app(apps::makeStepsApp()),
          grid(faultGrid(seed_))
    {
    }

    void
    setup() override
    {
        {
            Span span("trace.synth_s");
            trace::RobotRunConfig rc;
            rc.idleFraction = 0.5;
            rc.durationSeconds = kTraceSeconds;
            rc.seed = deriveSeed(seed, 1);
            rc.name = "robot-run";
            robotTrace = trace::generateRobotRun(rc);
        }
        compiledOk = true;
        conditions = {{app->name(),
                       compileCondition(app->wakeCondition(),
                                        app->channels(), compiledOk),
                       app->channels()}};
    }

    std::vector<CellResult>
    runJob() override
    {
        results.assign(grid.size(), {});
        const int parent = currentSpan();
        pool.parallelFor(0, grid.size(), [&](std::size_t i) {
            sim::SimConfig config;
            config.strategy = sim::Strategy::Sidewinder;
            config.faults = grid[i].plan;
            Span span("sim.supervised_s", parent);
            results[i] = sim::simulateSupervised(robotTrace, *app, config);
        });
        std::vector<CellResult> cells;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            cells.push_back(simCell(grid[i].key, results[i], kTraceSeconds,
                                    grid[i].plan.reconfigUpdates.size()));
            cells.back().invariantsHold &= compiledOk;
        }
        return cells;
    }

    SpeedProbe
    speedProbe() const override
    {
        return SpeedProbe::FftCrc;
    }

    double
    simulatedSecondsPerJob() const override
    {
        return kTraceSeconds * static_cast<double>(grid.size());
    }

    const Golden *
    golden() const override
    {
        return nullptr;
    }

    void
    layerMetrics(Metrics &out) override
    {
        faultLayerMetrics(results, out);
        out["trace.samples"] = {
            static_cast<double>(robotTrace.sampleCount() *
                                robotTrace.channels.size()),
            "count"};
        for (const auto &[rate, tag] : kCorruption)
            out[std::string("sim.recall_min.corrupt_") + tag] =
                recallMin([&](const sim::FaultPlan &p) {
                    return p.byteCorruptionRate == rate;
                });
        out["sim.recall_min.resets"] = recallMin(
            [](const sim::FaultPlan &p) { return !p.hubResetTimes.empty(); });
        out["sim.recall_min.reconfig"] =
            recallMin([](const sim::FaultPlan &p) {
                return !p.reconfigUpdates.empty();
            });
    }

    IngestPass
    ingestProbe() override
    {
        return hubIngestProbe(conditions, {&robotTrace});
    }

  private:
    template <typename Pred>
    Metric
    recallMin(Pred pred) const
    {
        double recall = 1.0;
        for (std::size_t i = 0; i < grid.size(); ++i)
            if (pred(grid[i].plan))
                recall = std::min(recall, results[i].recall);
        return {recall, "ratio"};
    }

    std::uint64_t seed;
    support::ThreadPool &pool;
    std::unique_ptr<apps::Application> app;
    std::vector<GridCell> grid;
    trace::Trace robotTrace;
    std::vector<ProbeCondition> conditions;
    bool compiledOk = true;
    std::vector<sim::SimResult> results;
};

} // namespace

std::unique_ptr<Workload>
makeSupervisedLink(std::uint64_t seed, support::ThreadPool &pool)
{
    return std::make_unique<SupervisedLink>(seed, pool);
}

} // namespace perfbench
