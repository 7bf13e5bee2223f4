/**
 * @file
 * fleet_accel: a sim::FleetRuntime population on the robot-accel mix
 * (steps 0.7 / transitions 0.2 / headbutts 0.1) homed across
 * hub::platformExecutors(). Set-up constructs and builds the fleet
 * (plan interning, range memo, placement, engine instantiation); the
 * job is repeated run() rounds. The fleet already ingests in blocks
 * on the pool, so it is the control that must not move when the
 * other simulation drivers change, and its set-up rivals its run time,
 * so work moved into set-up shows here.
 */

#include <malloc.h>

#include "apps/apps.h"
#include "bench.h"
#include "goldens.h"
#include "hub/placer.h"
#include "sim/fleet.h"
#include "spans.h"
#include "trace/robot_gen.h"

namespace perfbench {

using namespace sidewinder;

namespace {

/** Well below the 100k-device / ~1.2 GB fleet of bench_fleet_scaling,
 *  large enough that build and run each take tens of milliseconds. */
constexpr std::size_t kDevices = 16384;
constexpr int kRounds = 4;
constexpr double kSecondsPerRound = 4.0;
constexpr double kTraceSeconds = 60.0;

class FleetAccel final : public Workload
{
  public:
    FleetAccel(std::uint64_t seed_, support::ThreadPool &pool_)
        : seed(seed_), pool(pool_), steps(apps::makeStepsApp()),
          transitions(apps::makeTransitionsApp()),
          headbutts(apps::makeHeadbuttsApp())
    {
        config.deviceCount = kDevices;
        config.secondsPerDevice = kSecondsPerRound;
        config.seed = deriveSeed(seed, 2);
        config.executors = hub::platformExecutors();
    }

    void
    teardown() override
    {
        fleet.reset();
        // Hand the freed population back to the OS, so every build
        // starts from the same heap.
        malloc_trim(0);
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
            rc.name = "fleet-trace";
            fleetTrace = trace::generateRobotRun(rc);
        }
        conditions.clear();
        compiledOk = true;
        for (const apps::Application *app : mixApps()) {
            const auto channels = app->channels();
            conditions.push_back(
                {app->name(),
                 compileCondition(app->wakeCondition(), channels,
                                  compiledOk),
                 channels});
        }
        {
            Span span("sim.fleet_build_s");
            fleet = std::make_unique<sim::FleetRuntime>(
                config,
                std::vector<sim::FleetAppMix>{{steps.get(), 0.7},
                                              {transitions.get(), 0.2},
                                              {headbutts.get(), 0.1}},
                fleetTrace);
            fleet->build(pool);
        }
    }

    std::vector<CellResult>
    runJob() override
    {
        for (int round = 0; round < kRounds; ++round) {
            Span span("sim.fleet_run_s");
            fleet->run(pool);
        }
        last = fleet->collect();

        CellResult cell;
        cell.key = "fleet";
        std::string &fp = cell.fingerprint;
        addField(fp, "digest", std::uint64_t{last.digest});
        addField(fp, "samples", std::uint64_t{last.samplesIngested});
        addField(fp, "wakes", std::uint64_t{last.wakeEvents});
        addField(fp, "admitted", std::uint64_t{last.admittedDevices});
        addField(fp, "rejected", std::uint64_t{last.rejectedDevices});
        addField(fp, "ram_bytes", std::uint64_t{last.modeledRamBytes});
        addField(fp, "energy_mj", last.hubEnergyMj);
        addField(fp, "power_mw", last.fleetPowerMw);
        addField(fp, "plans", std::uint64_t{last.cache.planCount});
        addField(fp, "misses", std::uint64_t{last.cache.misses});
        cell.invariantsHold =
            compiledOk && last.deviceCount == kDevices &&
            last.admittedDevices + last.rejectedDevices == kDevices &&
            last.samplesIngested > 0;
        return {cell};
    }

    SpeedProbe
    speedProbe() const override
    {
        return SpeedProbe::FftCrc;
    }

    double
    simulatedSecondsPerJob() const override
    {
        return static_cast<double>(kDevices) * kRounds * kSecondsPerRound;
    }

    const Golden *
    golden() const override
    {
        return seed == kDefaultSeed ? &kFleetGolden : nullptr;
    }

    void
    layerMetrics(Metrics &out) override
    {
        fleetLayerMetrics(*fleet, last, out);
        out["trace.samples"] = {
            static_cast<double>(fleetTrace.sampleCount() *
                                fleetTrace.channels.size()),
            "count"};
    }

    IngestPass
    ingestProbe() override
    {
        return hubIngestProbe(conditions, {&fleetTrace});
    }

  private:
    std::vector<const apps::Application *>
    mixApps() const
    {
        return {steps.get(), transitions.get(), headbutts.get()};
    }

    std::uint64_t seed;
    support::ThreadPool &pool;
    std::unique_ptr<apps::Application> steps, transitions, headbutts;
    sim::FleetConfig config;
    trace::Trace fleetTrace;
    std::vector<ProbeCondition> conditions;
    bool compiledOk = true;
    std::unique_ptr<sim::FleetRuntime> fleet;
    sim::FleetResult last;
};

} // namespace

std::unique_ptr<Workload>
makeFleetAccel(std::uint64_t seed, support::ThreadPool &pool)
{
    return std::make_unique<FleetAccel>(seed, pool);
}

} // namespace perfbench
