#include "sim/concurrent.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "hub/engine.h"
#include "hub/mcu.h"
#include "il/lower.h"
#include "sim/replay.h"
#include "support/error.h"

namespace sidewinder::sim {

ConcurrentResult
simulateConcurrent(
    const trace::Trace &trace,
    const std::vector<std::unique_ptr<apps::Application>> &apps,
    const SimConfig &config)
{
    if (apps.empty())
        throw ConfigError("concurrent simulation needs applications");
    trace.checkInvariants();

    // All applications must share the channel set (one hub).
    const auto channels = apps.front()->channels();
    for (const auto &app : apps) {
        const auto other = app->channels();
        if (other.size() != channels.size())
            throw ConfigError("concurrent apps must share channels");
        for (std::size_t i = 0; i < channels.size(); ++i)
            if (other[i].name != channels[i].name)
                throw ConfigError(
                    "concurrent apps must share channels");
    }

    // Lower every condition once, then install the plans on one
    // engine (the install path the hub runtime uses at admission).
    hub::Engine engine(channels, config.shareHubNodes);
    double wake_bound_hz = 0.0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const il::ExecutionPlan plan =
            il::lower(apps[a]->wakeCondition().compile(), channels,
                      il::LowerOptions{config.shareHubNodes});
        wake_bound_hz += plan.wakeRateBoundHz;
        engine.addCondition(static_cast<int>(a + 1), plan);
    }

    ConcurrentResult result;
    result.hubNodeCount = engine.nodeCount();
    result.hubCyclesPerSecond = engine.estimatedCyclesPerSecond();
    // Size the hub against the full budget set — compute, RAM, and
    // the summed wake bound — not just cycles: a node mix that fits
    // the MSP430's cycle budget can still blow its 16 KB of SRAM.
    il::ProgramCost hub_load;
    hub_load.cyclesPerSecond = result.hubCyclesPerSecond;
    hub_load.ramBytes = engine.estimatedRamBytes();
    hub_load.wakeRateBoundHz = wake_bound_hz;
    const hub::McuModel mcu = hub::selectMcuForCost(hub_load);
    result.mcuName = mcu.name;

    // Replay the trace; collect triggers per condition.
    std::map<int, std::vector<double>> triggers;
    detail::replayBlocks(engine, trace, [&](const hub::WakeEvent &event) {
        triggers[event.conditionId].push_back(event.timestamp);
    });
    const std::size_t n = trace.sampleCount();

    // One shared timeline: the CPU wakes when any condition fires.
    // The dwell and lookback honour the most demanding application.
    double event_dwell = config.eventDwellSeconds;
    double lookback = config.lookbackSeconds;
    for (const auto &app : apps) {
        if (config.eventDwellSeconds <= 0.0)
            event_dwell = std::max(
                event_dwell, app->recommendedEventDwellSeconds());
        if (config.lookbackSeconds <= 0.0)
            lookback = std::max(lookback,
                                app->recommendedLookbackSeconds());
    }

    PowerModel model = nexus4WithHub(mcu.activePowerMw);
    DeviceTimeline timeline(trace.durationSeconds());
    const double trans = model.transitionSeconds;
    for (const auto &[id, times] : triggers) {
        (void)id;
        for (double t : times)
            timeline.addAwakeInterval(t + trans,
                                      t + trans + event_dwell);
    }
    const auto merged = timeline.mergedIntervals(2.0 * trans - 1e-9);
    result.timeline = timeline.summarize(model);
    result.averagePowerMw = result.timeline.averagePowerMw;
    result.hubMw = mcu.activePowerMw;

    // Per-application classification over the shared awake windows.
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const auto &app = *apps[a];
        std::vector<double> detections;
        double covered_until = 0.0;
        for (const auto &interval : merged) {
            const double begin_t =
                std::max(interval.start - lookback, covered_until);
            covered_until = interval.end;
            const auto begin = static_cast<std::size_t>(
                std::max(begin_t, 0.0) * trace.sampleRateHz);
            const auto end = std::min(
                static_cast<std::size_t>(interval.end *
                                         trace.sampleRateHz),
                n);
            if (end <= begin)
                continue;
            for (double t : app.classify(trace, begin, end))
                detections.push_back(t);
        }
        std::sort(detections.begin(), detections.end());

        const auto truth = trace.eventsOfType(app.eventType());
        ConcurrentAppResult app_result;
        app_result.appName = app.name();
        app_result.hubTriggerCount =
            triggers.count(static_cast<int>(a + 1))
                ? triggers.at(static_cast<int>(a + 1)).size()
                : 0;
        app_result.detection =
            app.coalesceDetections()
                ? metrics::matchEventsCoalesced(truth, detections,
                                                app.matchTolerance())
                : metrics::matchEvents(truth, detections,
                                       app.matchTolerance());
        app_result.recall = app_result.detection.recall();
        app_result.precision = app_result.detection.precision();
        result.apps.push_back(std::move(app_result));
    }

    return result;
}

DeviceResult
simulateDevice(const std::vector<DeviceDomain> &domains,
               const SimConfig &config)
{
    if (domains.empty())
        throw ConfigError("device simulation needs domains");
    for (const auto &domain : domains) {
        if (domain.trace == nullptr || domain.apps == nullptr ||
            domain.apps->empty())
            throw ConfigError("device domain needs a trace and apps");
        domain.trace->checkInvariants();
    }
    const double total = domains.front().trace->durationSeconds();
    for (const auto &domain : domains)
        if (std::abs(domain.trace->durationSeconds() - total) > 1.0)
            throw ConfigError(
                "device domain traces must share a duration");

    DeviceResult result;
    PowerModel model = nexus4();
    DeviceTimeline timeline(total);
    const double trans = model.transitionSeconds;

    struct PendingDomain
    {
        const DeviceDomain *domain;
        std::map<int, std::vector<double>> triggers;
        double lookback = 0.0;
    };
    std::vector<PendingDomain> pending;

    // Run each domain's hub; accumulate triggers onto one timeline.
    for (const auto &domain : domains) {
        const auto &apps = *domain.apps;
        const auto &trace = *domain.trace;
        const auto channels = apps.front()->channels();

        hub::Engine engine(channels, config.shareHubNodes);
        double wake_bound_hz = 0.0;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const il::ExecutionPlan plan = il::lower(
                apps[a]->wakeCondition().compile(), channels,
                il::LowerOptions{config.shareHubNodes});
            wake_bound_hz += plan.wakeRateBoundHz;
            engine.addCondition(static_cast<int>(a + 1), plan);
        }

        DeviceDomainResult domain_result;
        domain_result.hubNodeCount = engine.nodeCount();
        // Full budget set per domain hub: cycles, RAM, wake bound.
        il::ProgramCost hub_load;
        hub_load.cyclesPerSecond = engine.estimatedCyclesPerSecond();
        hub_load.ramBytes = engine.estimatedRamBytes();
        hub_load.wakeRateBoundHz = wake_bound_hz;
        const hub::McuModel mcu = hub::selectMcuForCost(hub_load);
        domain_result.mcuName = mcu.name;
        domain_result.hubMw = mcu.activePowerMw;
        result.totalHubMw += mcu.activePowerMw;
        model.hubMw += mcu.activePowerMw;

        PendingDomain p;
        p.domain = &domain;
        double event_dwell = config.eventDwellSeconds;
        for (const auto &app : apps) {
            if (config.eventDwellSeconds <= 0.0)
                event_dwell = std::max(
                    event_dwell, app->recommendedEventDwellSeconds());
            p.lookback = std::max(
                p.lookback, config.lookbackSeconds > 0.0
                                ? config.lookbackSeconds
                                : app->recommendedLookbackSeconds());
        }

        detail::replayBlocks(
            engine, trace, [&](const hub::WakeEvent &event) {
                p.triggers[event.conditionId].push_back(event.timestamp);
                timeline.addAwakeInterval(
                    event.timestamp + trans,
                    event.timestamp + trans + event_dwell);
            });

        result.domains.push_back(std::move(domain_result));
        pending.push_back(std::move(p));
    }

    const auto merged = timeline.mergedIntervals(2.0 * trans - 1e-9);
    result.timeline = timeline.summarize(model);
    result.averagePowerMw = result.timeline.averagePowerMw;

    // Classify per app over the shared awake windows.
    for (std::size_t d = 0; d < pending.size(); ++d) {
        const auto &p = pending[d];
        const auto &apps = *p.domain->apps;
        const auto &trace = *p.domain->trace;

        for (std::size_t a = 0; a < apps.size(); ++a) {
            const auto &app = *apps[a];
            std::vector<double> detections;
            double covered_until = 0.0;
            for (const auto &interval : merged) {
                const double begin_t = std::max(
                    interval.start - p.lookback, covered_until);
                covered_until = interval.end;
                const auto begin = static_cast<std::size_t>(
                    std::max(begin_t, 0.0) * trace.sampleRateHz);
                const auto end = std::min(
                    static_cast<std::size_t>(interval.end *
                                             trace.sampleRateHz),
                    trace.sampleCount());
                if (end <= begin)
                    continue;
                for (double t : app.classify(trace, begin, end))
                    detections.push_back(t);
            }
            std::sort(detections.begin(), detections.end());

            const auto truth = trace.eventsOfType(app.eventType());
            ConcurrentAppResult app_result;
            app_result.appName = app.name();
            app_result.hubTriggerCount =
                p.triggers.count(static_cast<int>(a + 1))
                    ? p.triggers.at(static_cast<int>(a + 1)).size()
                    : 0;
            app_result.detection =
                app.coalesceDetections()
                    ? metrics::matchEventsCoalesced(
                          truth, detections, app.matchTolerance())
                    : metrics::matchEvents(truth, detections,
                                           app.matchTolerance());
            app_result.recall = app_result.detection.recall();
            app_result.precision = app_result.detection.precision();
            result.domains[d].apps.push_back(std::move(app_result));
        }
    }

    return result;
}

} // namespace sidewinder::sim
