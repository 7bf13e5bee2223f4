/**
 * @file
 * Helpers shared by the trace-replay paths of the simulator
 * (sim/simulator.cc, sim/concurrent.cc) and the fault-injection
 * harness (sim/faults.cc), plus the block size the fleet defaults to.
 * They replay the same traces through the same block ingestion and
 * score detections identically; they live here so no simulator can
 * drift from another.
 */

#ifndef SIDEWINDER_SIM_REPLAY_H
#define SIDEWINDER_SIM_REPLAY_H

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "apps/app.h"
#include "hub/engine.h"
#include "il/validate.h"
#include "sim/timeline.h"
#include "trace/types.h"

namespace sidewinder::sim {

/**
 * Waves per Engine::pushBlock call when a simulator replays a trace
 * (replayBlocks), and FleetConfig::blockSamples' default.
 */
inline constexpr std::size_t kReplayBlockSamples = 64;

} // namespace sidewinder::sim

namespace sidewinder::sim::detail {

/** Samples index corresponding to time @p t (clamped). */
inline std::size_t
sampleAt(const trace::Trace &trace, double t)
{
    if (t <= 0.0)
        return 0;
    const auto idx = static_cast<std::size_t>(t * trace.sampleRateHz);
    return std::min(idx, trace.sampleCount());
}

/** Map engine channel order to trace channel indexes. */
inline std::vector<std::size_t>
channelMapping(const trace::Trace &trace,
               const std::vector<il::ChannelInfo> &channels)
{
    std::vector<std::size_t> mapping;
    mapping.reserve(channels.size());
    for (const auto &ch : channels)
        mapping.push_back(trace.channelIndex(ch.name));
    return mapping;
}

/**
 * Replay all of @p trace through @p engine in channel-major blocks of
 * kReplayBlockSamples waves, each wave stamped with trace.timeOf(i)
 * so wake times are exactly those of sample-by-sample ingestion, and
 * hand every wake event to @p on_wake in order.
 */
template <typename OnWake>
void
replayBlocks(hub::Engine &engine, const trace::Trace &trace,
             OnWake &&on_wake)
{
    const auto mapping = channelMapping(trace, engine.channels());
    const std::size_t n = trace.sampleCount();
    std::vector<double> block(mapping.size() * kReplayBlockSamples);
    std::vector<double> stamps(kReplayBlockSamples);
    std::vector<hub::WakeEvent> events;
    for (std::size_t start = 0; start < n; start += kReplayBlockSamples) {
        const std::size_t k = std::min(kReplayBlockSamples, n - start);
        for (std::size_t c = 0; c < mapping.size(); ++c) {
            const double *lane = trace.channels[mapping[c]].data() + start;
            std::copy(lane, lane + k, block.data() + c * k);
        }
        for (std::size_t w = 0; w < k; ++w)
            stamps[w] = trace.timeOf(start + w);
        engine.pushBlock(block.data(), k, stamps.data());
        engine.drainWakeEvents(events);
        for (const auto &event : events)
            on_wake(event);
    }
}

/** Run the application classifier over merged awake intervals. */
inline std::vector<double>
classifyIntervals(const trace::Trace &trace,
                  const apps::Application &app,
                  const std::vector<Interval> &intervals,
                  double lookback)
{
    std::vector<double> detections;
    double covered_until = 0.0;
    for (const auto &interval : intervals) {
        // Avoid re-classifying overlapping lookback regions.
        const double begin_t =
            std::max(interval.start - lookback, covered_until);
        covered_until = interval.end;
        const auto begin = sampleAt(trace, begin_t);
        const auto end = sampleAt(trace, interval.end);
        if (end <= begin)
            continue;
        for (double t : app.classify(trace, begin, end))
            detections.push_back(t);
    }
    std::sort(detections.begin(), detections.end());
    return detections;
}

/**
 * Mean delay from event start until the device is awake with the
 * event's data available (0 when the device was already awake).
 */
inline double
meanLatency(const trace::Trace &trace, const std::string &event_type,
            const std::vector<Interval> &intervals, double lookback)
{
    const auto events = trace.eventsOfType(event_type);
    if (events.empty())
        return 0.0;

    double total = 0.0;
    std::size_t counted = 0;
    for (const auto &ev : events) {
        for (const auto &interval : intervals) {
            // The event is processable in this interval if the awake
            // window (plus lookback) covers the event start.
            if (interval.end < ev.startTime)
                continue;
            if (interval.start - lookback > ev.endTime)
                break;
            total += std::max(0.0, interval.start - ev.startTime);
            ++counted;
            break;
        }
    }
    return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

} // namespace sidewinder::sim::detail

#endif // SIDEWINDER_SIM_REPLAY_H
