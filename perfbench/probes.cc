#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>

#include "bench.h"
#include "bench/alloc_counter.h"
#include "hub/engine.h"
#include "il/analyze.h"
#include "il/analyze_range.h"
#include "il/lower.h"
#include "sim/fleet.h"
#include "spans.h"

namespace perfbench {

using namespace sidewinder;
using sidewinder::bench::allocCount;

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 over (seed, stream).
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

il::ExecutionPlan
compileCondition(const core::ProcessingPipeline &pipeline,
                 const std::vector<il::ChannelInfo> &channels, bool &ok)
{
    Span span("il.compile_s");
    const il::Program program = pipeline.compile();
    il::ExecutionPlan plan = il::lower(program, channels);
    if (!il::analyze(program, channels).ok())
        ok = false;
    il::analyzeRanges(plan);
    return plan;
}

CellResult
simCell(const std::string &key, const sim::SimResult &r,
        double trace_seconds, std::size_t scheduled_updates)
{
    CellResult cell;
    cell.key = key;
    std::string &fp = cell.fingerprint;
    addField(fp, "power_mw", r.averagePowerMw);
    addField(fp, "energy_mj", r.timeline.energyMj);
    addField(fp, "triggers", std::uint64_t{r.hubTriggerCount});
    addField(fp, "recall", r.recall);
    addField(fp, "precision", r.precision);
    addField(fp, "latency_s", r.meanDetectionLatencySeconds);
    if (!r.mcuName.empty())
        addField(fp, "executor", r.mcuName);
    const auto &f = r.faults;
    if (f.any()) {
        addField(fp, "retx", std::uint64_t{f.retransmits});
        addField(fp, "lost", std::uint64_t{f.framesLost});
        addField(fp, "dropped", std::uint64_t{f.framesDropped});
        addField(fp, "corrupted", std::uint64_t{f.bytesCorrupted});
        addField(fp, "decoder_dropped",
                 std::uint64_t{f.decoderDroppedBytes});
        addField(fp, "resets", std::uint64_t{f.hubResets});
        addField(fp, "repushed", std::uint64_t{f.repushedConditions});
        addField(fp, "down_s", f.hubDownSeconds);
        addField(fp, "fallback_s", f.fallbackAwakeSeconds);
        addField(fp, "fallback_mj", f.fallbackEnergyMj);
        addField(fp, "committed", std::uint64_t{f.updatesCommitted});
        addField(fp, "rolled_back", std::uint64_t{f.updatesRolledBack});
        addField(fp, "delta_bytes", std::uint64_t{f.reconfigDeltaBytes});
        addField(fp, "full_bytes", std::uint64_t{f.reconfigFullBytes});
    }
    const auto unit = [](double v) { return v >= 0.0 && v <= 1.0; };
    const double slack = 1e-9 * trace_seconds;
    cell.invariantsHold =
        unit(r.recall) && unit(r.precision) &&
        std::isfinite(r.averagePowerMw) && r.averagePowerMw > 0.0 &&
        f.hubDownSeconds <= trace_seconds + slack &&
        f.fallbackAwakeSeconds <= trace_seconds + slack &&
        f.updatesCommitted <= scheduled_updates;
    return cell;
}

namespace {

/** Order-sensitive FNV-1a over one wake event. */
void
mixWake(std::uint64_t &digest, const hub::WakeEvent &event)
{
    const auto mix = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            digest ^= (v >> (8 * i)) & 0xFF;
            digest *= 1099511628211ULL;
        }
    };
    std::uint64_t t = 0, v = 0;
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::memcpy(&t, &event.timestamp, sizeof t);
    std::memcpy(&v, &event.value, sizeof v);
    mix(static_cast<std::uint64_t>(event.conditionId));
    mix(t);
    mix(v);
}

struct Replay
{
    double seconds = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t wakes = 0;
    std::uint64_t digest = 1469598103934665603ULL;
};

constexpr std::size_t kProbeBlock = 64;

Replay
replay(const ProbeCondition &condition, const trace::Trace &trace,
       bool block)
{
    hub::Engine engine(condition.channels);
    engine.addCondition(1, condition.plan);
    std::vector<std::size_t> mapping;
    for (const auto &ch : condition.channels)
        mapping.push_back(trace.channelIndex(ch.name));
    const std::size_t n = trace.sampleCount();
    const std::size_t width = mapping.size();
    std::vector<double> values(width * (block ? kProbeBlock : 1));
    std::vector<double> stamps(kProbeBlock);

    Replay out;
    const auto drain = [&] {
        for (const auto &event : engine.drainWakeEvents()) {
            ++out.wakes;
            mixWake(out.digest, event);
        }
    };
    const std::uint64_t allocs_before = allocCount();
    const double begin = nowSeconds();
    if (block) {
        Span span("hub.ingest_s.block");
        for (std::size_t start = 0; start < n; start += kProbeBlock) {
            const std::size_t k = std::min(kProbeBlock, n - start);
            for (std::size_t c = 0; c < width; ++c)
                for (std::size_t w = 0; w < k; ++w)
                    values[c * k + w] =
                        trace.channels[mapping[c]][start + w];
            for (std::size_t w = 0; w < k; ++w)
                stamps[w] = trace.timeOf(start + w);
            engine.pushBlock(values.data(), k, stamps.data());
            drain();
        }
    } else {
        Span span("hub.ingest_s.per_sample");
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t c = 0; c < width; ++c)
                values[c] = trace.channels[mapping[c]][i];
            engine.pushSamples(values, trace.timeOf(i));
            drain();
        }
    }
    out.seconds = nowSeconds() - begin;
    out.allocs = allocCount() - allocs_before;
    return out;
}

} // namespace

IngestPass
hubIngestProbe(const std::vector<ProbeCondition> &conditions,
               const std::vector<const trace::Trace *> &traces)
{
    IngestPass pass;
    for (const auto &condition : conditions) {
        for (const trace::Trace *t : traces) {
            const Replay a = replay(condition, *t, false);
            const Replay b = replay(condition, *t, true);
            pass.samples += static_cast<double>(t->sampleCount());
            pass.perSampleSeconds += a.seconds;
            pass.perSampleAllocs += a.allocs;
            pass.wakes += a.wakes;
            pass.blockSeconds += b.seconds;
            pass.blockAllocs += b.allocs;

            CellResult cell;
            cell.key = "probe.ingest/" + condition.name + "/" + t->name;
            addField(cell.fingerprint, "wakes", a.wakes);
            addField(cell.fingerprint, "digest", a.digest);
            addField(cell.fingerprint, "block_digest", b.digest);
            cell.invariantsHold = a.wakes == b.wakes && a.digest == b.digest;
            pass.cells.push_back(cell);
        }
    }
    return pass;
}

void
faultLayerMetrics(const std::vector<sim::SimResult> &results, Metrics &out)
{
    metrics::FaultMetrics sum;
    double triggers = 0.0;
    for (const auto &r : results) {
        sum += r.faults;
        triggers += static_cast<double>(r.hubTriggerCount);
    }
    const auto count = [](std::size_t v) {
        return Metric{static_cast<double>(v), "count"};
    };
    out["transport.retransmits"] = count(sum.retransmits);
    out["transport.frames_lost"] = count(sum.framesLost);
    out["transport.frames_dropped"] = count(sum.framesDropped);
    out["transport.bytes_corrupted"] = count(sum.bytesCorrupted);
    out["transport.decoder_dropped_bytes"] = count(sum.decoderDroppedBytes);
    out["transport.retx_per_trigger"] = {
        triggers > 0.0 ? static_cast<double>(sum.retransmits) / triggers
                       : 0.0,
        "ratio"};
    out["supervision.hub_resets"] = count(sum.hubResets);
    out["supervision.repushed_conditions"] = count(sum.repushedConditions);
    out["supervision.down_s"] = {sum.hubDownSeconds, "sim_s"};
    out["supervision.fallback_awake_s"] = {sum.fallbackAwakeSeconds,
                                           "sim_s"};
    out["reconfig.committed"] = count(sum.updatesCommitted);
    out["reconfig.rolled_back"] = count(sum.updatesRolledBack);
    out["reconfig.delta_to_full"] = {
        sum.reconfigFullBytes > 0
            ? static_cast<double>(sum.reconfigDeltaBytes) /
                  static_cast<double>(sum.reconfigFullBytes)
            : 0.0,
        "ratio"};
}

namespace {

/** Metric-name form of an executor name: hub.placer.conditions.<n>. */
std::string
placerMetricName(const std::string &executor)
{
    std::string name = "hub.placer.conditions.";
    for (char c : executor)
        name += std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                        c == '_' || c == '.'
                    ? c
                    : '_';
    return name;
}

} // namespace

void
fleetLayerMetrics(const sim::FleetRuntime &fleet,
                  const sim::FleetResult &result, Metrics &out)
{
    out["hub.plan_cache.misses"] = {
        static_cast<double>(result.cache.misses), "count"};
    out["hub.plan_cache.hit_rate"] = {result.cache.hitRate(), "ratio"};
    out["hub.plan_cache.plans"] = {
        static_cast<double>(result.cache.planCount), "count"};
    const auto &executors = fleet.executorSet();
    for (std::size_t e = 0; e < executors.size(); ++e)
        out[placerMetricName(executors[e].name)] = {
            e < result.executorConditions.size()
                ? static_cast<double>(result.executorConditions[e])
                : 0.0,
            "count"};
    out["hub.ram_bytes_per_device"] = {
        static_cast<double>(result.modeledRamBytes) /
            static_cast<double>(result.deviceCount),
        "B"};
}

} // namespace perfbench
