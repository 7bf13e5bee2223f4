/**
 * @file
 * Shared declarations of the repository benchmark: the workload
 * interface main.cc times, the metric map it prints, and
 * the hub ingest probe every workload's traced run uses.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "check.h"
#include "core/pipeline.h"
#include "il/plan.h"
#include "sim/fleet.h"
#include "sim/simulator.h"
#include "spans.h"
#include "support/thread_pool.h"
#include "trace/types.h"

namespace perfbench {

namespace sw = sidewinder;

/** The seed the goldens were recorded on. */
constexpr std::uint64_t kDefaultSeed = 1;

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** A condition the hub ingest probe replays. */
struct ProbeCondition
{
    std::string name;
    sw::il::ExecutionPlan plan;
    std::vector<sw::il::ChannelInfo> channels;
};

/** Totals of one hub ingest probe pass. */
struct IngestPass
{
    /** One cell per (condition, trace): the two paths must raise
     *  identical wakes. */
    std::vector<CellResult> cells;
    /** Samples replayed per path. */
    double samples = 0.0;
    double perSampleSeconds = 0.0, blockSeconds = 0.0;
    std::uint64_t perSampleAllocs = 0, blockAllocs = 0;
    std::uint64_t wakes = 0;
};

/**
 * Replay every condition over every trace once through
 * Engine::pushSamples and once through Engine::pushBlock, inside
 * hub.ingest_s.per_sample / hub.ingest_s.block spans.
 */
IngestPass
hubIngestProbe(const std::vector<ProbeCondition> &conditions,
               const std::vector<const sw::trace::Trace *> &traces);

/**
 * One workload. An iteration is setup() then runJob(); main.cc
 * times both and checks the cells runJob() returns.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs from the seed: traces, compiled conditions,
     *  and for the fleet the built population. */
    virtual void setup() = 0;

    /** Release the previous iteration's state; called untimed before
     *  each setup(). */
    virtual void teardown() {}

    /** One iteration of the timed job. */
    virtual std::vector<CellResult> runJob() = 0;

    /** The reference kernel whose slowdowns on a shared host track
     *  this workload's set-up and job (see spans.h). */
    virtual SpeedProbe speedProbe() const = 0;

    /** Simulated device-seconds one runJob() replays. */
    virtual double simulatedSecondsPerJob() const = 0;

    /** Golden cells of the default seed; null when the workload has
     *  none. */
    virtual const Golden *golden() const = 0;

    /** Traced run only, after the timed iterations: add the counters
     *  and model outputs of the last job to @p out. */
    virtual void layerMetrics(Metrics &out) = 0;

    /** One pass of the hub ingest probe over the conditions and
     *  traces of the last set-up. */
    virtual IngestPass ingestProbe() = 0;
};

std::unique_ptr<Workload> makeTable2Audio(std::uint64_t seed,
                                          sw::support::ThreadPool &pool);
std::unique_ptr<Workload> makeFleetAccel(std::uint64_t seed,
                                         sw::support::ThreadPool &pool);
std::unique_ptr<Workload>
makeSupervisedLink(std::uint64_t seed, sw::support::ThreadPool &pool);

/** Independent 64-bit stream @p stream of workload seed @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * The IL layer for one condition: compile, lower, analyze and
 * analyzeRanges, inside an il.compile_s span. Returns the lowered
 * plan; @p ok is cleared when the analyzer reports an error.
 */
sw::il::ExecutionPlan
compileCondition(const sw::core::ProcessingPipeline &pipeline,
                 const std::vector<sw::il::ChannelInfo> &channels,
                 bool &ok);

/** Transport, supervision and reconfiguration counters summed over
 *  @p results. */
void faultLayerMetrics(const std::vector<sw::sim::SimResult> &results,
                       Metrics &out);

/** Plan-cache, placer and per-device RAM figures of a fleet. */
void fleetLayerMetrics(const sw::sim::FleetRuntime &fleet,
                       const sw::sim::FleetResult &result, Metrics &out);

/**
 * The cell of one simulate/simulateSupervised result: every output
 * the model reports, and its invariants (recall and precision in
 * [0,1], finite positive power, down and fallback time within the
 * trace, no more commits than @p scheduled_updates).
 */
CellResult simCell(const std::string &key, const sw::sim::SimResult &r,
                   double trace_seconds,
                   std::size_t scheduled_updates = 0);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
