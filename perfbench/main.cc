/**
 * @file
 * The repository benchmark:
 *
 *   perfbench --workload table2_audio|fleet_accel|supervised_link
 *             --seed N --seconds S --trace 0|1 [--spans PATH]
 *
 * One workload per process, on a pool of one thread. After one warm-up
 * iteration, iterations (set-up, then job) repeat until S seconds
 * have passed, with the speed probe on (spans.h): each call the
 * set-up or the job makes into the library first runs the workload's
 * reference kernel. Other tenants of a shared host slow a core by tens
 * of percent for seconds to minutes at a time, so every part's time
 * is scaled by the kernel's nominal time over its time just before
 * that part. setup_s and job_s are the medians of those
 * host-speed-corrected times. Every iteration's cells go
 * through the output check. With --trace 1 untraced iterations,
 * traced iterations and hub ingest probe passes take turns; per-layer
 * metrics are the medians of the traced iterations and of the probe
 * passes, and the tracing overhead is the difference between the
 * traced and untraced median job wall times. The last stdout line is
 * the JSON result.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "check.h"
#include "metric_names.h"
#include "spans.h"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "table2_audio|fleet_accel|supervised_link --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value, &end);
            if (!(o.seconds > 0.0 && o.seconds <= 600.0))
                usage("--seconds must be in (0, 600]");
        } else if (flag == "--trace") {
            o.trace = std::strcmp(value, "1") == 0;
            if (!o.trace && std::strcmp(value, "0") != 0)
                usage("--trace must be 0 or 1");
        } else if (flag == "--spans") {
            o.spansPath = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("malformed value for " + flag).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile, as Python's statistics.quantiles
 *  (method 'exclusive') gives it for n=4. */
double
quartile(std::vector<double> v, int which)
{
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    double pos = which * (n + 1) / 4.0 - 1.0;
    pos = std::clamp(pos, 0.0, n - 1.0);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Peak resident set of this process, MB (VmHWM). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** How an iteration is recorded: no spans, every span, or every span
 *  with the speed probe on. */
enum class Record { Plain, Traced, SpeedProbed };

struct Phase
{
    /** Wall seconds of each iteration's set-up and job. */
    std::vector<double> setup, job;
    /** SpeedProbed: each iteration's set-up and job in reference
     *  units, and the fastest reference-kernel time of the run. */
    std::vector<double> setupUnits, jobUnits;
    double fastestRef = std::numeric_limits<double>::infinity();
    /** Per-layer self seconds of each traced iteration, by name. */
    std::map<std::string, std::vector<double>> layers;
};

void
printSpread(const char *label, const std::vector<double> &v)
{
    if (v.empty())
        return;
    const double q1 = quartile(v, 1), q2 = median(v), q3 = quartile(v, 3);
    std::printf("%s: n=%zu median=%.6f q1=%.6f q3=%.6f min=%.6f max=%.6f "
                "iqr/median=%.4f\n",
                label, v.size(), q2, q1, q3,
                *std::min_element(v.begin(), v.end()),
                *std::max_element(v.begin(), v.end()), (q3 - q1) / q2);
}

void
writeSpans(const std::string &path, const std::vector<SpanRecord> &spans)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    const double t0 = spans.empty() ? 0.0 : spans.front().start;
    const auto self = selfSeconds(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                      "\"start_s\": %.9f, \"end_s\": %.9f, "
                      "\"self_s\": %.9f}\n",
                      spans[i].id, spans[i].parent,
                      spans[i].name.c_str(), spans[i].start - t0,
                      spans[i].end - t0, self[i]);
        out << buf;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);

    // Timings of an unoptimized tree say nothing about the program.
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type != "Release") {
        std::fprintf(stderr,
                     "perfbench: refusing to benchmark a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     build_type.c_str());
        return 3;
    }

    // One thread: on a 4-vCPU shared host a fixed compute loop held
    // its 5 s medians within 1 % on one thread but moved 14 % on four,
    // and the speed probe must run on the thread that makes the call
    // it times. The pool still carries every parallelFor, inline on
    // the calling thread.
    const std::size_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const std::size_t width = 1;
    sw::support::ThreadPool pool(width);

    std::unique_ptr<Workload> workload;
    if (opt.workload == "table2_audio")
        workload = makeTable2Audio(opt.seed, pool);
    else if (opt.workload == "fleet_accel")
        workload = makeFleetAccel(opt.seed, pool);
    else if (opt.workload == "supervised_link")
        workload = makeSupervisedLink(opt.seed, pool);
    else
        usage(("unknown workload " + opt.workload).c_str());

    std::printf("host: workload=%s seed=%llu pool_threads=%zu nproc=%zu "
                "build=%s golden=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), width, nproc,
                build_type.c_str(),
                workload->golden() ? "checked" : "skipped");

    OutputCheck check(workload->golden());
    std::vector<SpanRecord> all_spans;

    // One iteration: untimed teardown, timed set-up, timed job. A
    // warm-up iteration prints its cells instead of recording times.
    const auto iterate = [&](Phase *phase, Record how) {
        workload->teardown();
        setTracing(how == Record::Traced || how == Record::SpeedProbed);
        setSpeedProbe(how == Record::SpeedProbed ? workload->speedProbe()
                                                 : SpeedProbe::Off);
        std::vector<CellResult> cells;
        int setup_root = -1, job_root = -1;
        const double t0 = nowSeconds();
        {
            Span setup("bench.setup");
            setup_root = setup.id();
            workload->setup();
        }
        const double t1 = nowSeconds();
        {
            Span job("bench.job");
            job_root = job.id();
            cells = workload->runJob();
        }
        const double t2 = nowSeconds();
        setTracing(false);
        setSpeedProbe(SpeedProbe::Off);
        check.check(cells);
        if (phase == nullptr) {
            for (const auto &cell : cells)
                std::printf("cell %s %s\n", cell.key.c_str(),
                            cell.fingerprint.c_str());
            return;
        }
        phase->setup.push_back(t1 - t0);
        phase->job.push_back(t2 - t1);
        const auto spans = takeSpans();
        if (how == Record::SpeedProbed) {
            phase->setupUnits.push_back(referenceUnits(spans, setup_root));
            phase->jobUnits.push_back(referenceUnits(spans, job_root));
            for (const auto &span : spans)
                phase->fastestRef =
                    std::min(phase->fastestRef, span.refSeconds);
        }
        if (how != Record::Traced)
            return;
        for (const auto &[name, self] : selfSecondsByName(spans))
            phase->layers[name].push_back(self);
        all_spans.insert(all_spans.end(), spans.begin(), spans.end());
    };

    Metrics out;
    std::size_t attempted = 0, failed = 0;
    try {
        // Warm-up: caches, lazy set-up, the reference kernel's tables.
        iterate(nullptr, Record::Plain);
        referenceKernel(workload->speedProbe());
        if (!opt.trace) {
            Phase p;
            const double begin = nowSeconds();
            while (p.job.size() < 3 || nowSeconds() - begin < opt.seconds)
                iterate(&p, Record::SpeedProbed);
            const double nominal =
                nominalReferenceSeconds(workload->speedProbe());
            const auto seconds = [&](std::vector<double> units,
                                     double ref) {
                for (double &u : units)
                    u *= ref;
                return units;
            };
            std::printf("reference kernel: nominal %.6f s, fastest in "
                        "this run %.6f s\n",
                        nominal, p.fastestRef);
            printSpread("job_s", seconds(p.jobUnits, nominal));
            printSpread("job_s at this run's fastest reference",
                        seconds(p.jobUnits, p.fastestRef));
            printSpread("setup_s", seconds(p.setupUnits, nominal));
            printSpread("job_wall_s, speed probes included", p.job);
            const double job = median(seconds(p.jobUnits, nominal));
            out["job_s"] = {job, "s"};
            out["setup_s"] = {median(seconds(p.setupUnits, nominal)), "s"};
            out["sim_s_per_s"] = {workload->simulatedSecondsPerJob() / job,
                                  "sim_s/s"};
            out["peak_rss_mb"] = {peakRssMb(), "MB"};
        } else {
            // Untraced iterations, traced iterations and ingest probe
            // passes take turns, so a drift in host speed reaches all
            // three alike.
            Phase plain, traced;
            std::vector<double> per_sample_s, block_s;
            IngestPass pass;
            OutputCheck probe_check(nullptr);
            const double begin = nowSeconds();
            for (int turn = 0; per_sample_s.size() < 3 ||
                               nowSeconds() - begin < opt.seconds;
                 ++turn) {
                if (turn % 3 != 2) {
                    iterate(turn % 3 == 0 ? &plain : &traced,
                            turn % 3 == 0 ? Record::Plain : Record::Traced);
                    continue;
                }
                setTracing(true);
                pass = workload->ingestProbe();
                setTracing(false);
                const auto spans = takeSpans();
                all_spans.insert(all_spans.end(), spans.begin(), spans.end());
                probe_check.check(pass.cells);
                per_sample_s.push_back(pass.perSampleSeconds);
                block_s.push_back(pass.blockSeconds);
            }
            printSpread("job_wall_s untraced", plain.job);
            printSpread("job_wall_s traced", traced.job);
            printSpread("hub.ingest_s.per_sample", per_sample_s);
            for (const auto &[name, values] : traced.layers)
                out[name] = {median(values), "s"};
            out["bench.job_self_s"] = out["bench.job"];
            out.erase("bench.job");
            out.erase("bench.setup");
            out["bench.job_wall_s"] = {median(plain.job), "s"};
            out["bench.trace_overhead_s"] = {
                median(traced.job) - median(plain.job), "s"};
            workload->layerMetrics(out);

            attempted += probe_check.attempted();
            failed += probe_check.failed();
            for (const auto &m : probe_check.failures())
                std::fprintf(stderr, "perfbench: FAILED %s\n", m.c_str());
            const double ingest = median(per_sample_s);
            const double ksamples = pass.samples / 1000.0;
            out["hub.ingest_s.per_sample"] = {ingest, "s"};
            out["hub.ingest_s.block"] = {median(block_s), "s"};
            out["hub.ns_per_sample.per_sample"] = {
                ingest / pass.samples * 1e9, "ns"};
            out["hub.ns_per_sample.block"] = {
                median(block_s) / pass.samples * 1e9, "ns"};
            out["hub.allocs_per_ksample.per_sample"] = {
                static_cast<double>(pass.perSampleAllocs) / ksamples,
                "1/ksample"};
            out["hub.allocs_per_ksample.block"] = {
                static_cast<double>(pass.blockAllocs) / ksamples,
                "1/ksample"};
            out["hub.wake_events"] = {static_cast<double>(pass.wakes),
                                      "count"};
            const auto sw_sim = out.find("sim.simulate_s.sw");
            out["hub.ingest_share"] = {
                sw_sim != out.end() ? ingest / sw_sim->second.value : 0.0,
                "ratio"};
            out["support.pool_threads"] = {static_cast<double>(width),
                                           "count"};
            out["support.nproc"] = {static_cast<double>(nproc), "count"};
            writeSpans(opt.spansPath, all_spans);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    attempted += check.attempted();
    failed += check.failed();
    for (const auto &m : check.failures())
        std::fprintf(stderr, "perfbench: FAILED %s\n", m.c_str());

    // Print exactly the declared metrics, each with its declared unit.
    Metrics printed;
    const auto take = [&](const MetricSpec &spec) {
        const auto it = out.find(spec.name);
        printed[spec.name] = {it == out.end() ? 0.0 : it->second.value,
                              spec.unit};
    };
    std::set<std::string> declared;
    if (opt.trace)
        for (const auto &spec : kPerLayer) {
            take(spec);
            declared.insert(spec.name);
        }
    else
        for (const auto &spec : kEndToEnd) {
            take(spec);
            declared.insert(spec.name);
        }
    for (const auto &[name, metric] : out)
        if (!declared.count(name)) {
            std::fprintf(stderr, "perfbench: undeclared metric %s\n",
                         name.c_str());
            ++failed;
        }

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : printed) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", metric.value);
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return failed == 0 ? 0 : 1;
}
