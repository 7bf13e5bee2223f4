#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<SpeedProbe> g_speedProbe{SpeedProbe::Off};

/** Keeps the reference kernels' results alive. */
std::atomic<double> g_referenceSink{0.0};

std::mutex g_mutex;
/** Guarded by g_mutex. */
std::vector<SpanRecord> g_finished;
int g_nextId = 0;

/** Spans open on this thread, innermost last. */
thread_local std::vector<int> t_open;

int
allocateId()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_nextId++;
}

/** 150 radix-2 FFTs of 512 complex points. */
void
fftKernel()
{
    const std::size_t n = 512;
    static std::vector<std::complex<double>> x(n), twiddle(n / 2);
    static bool ready = false;
    if (!ready) {
        for (std::size_t k = 0; k < n / 2; ++k)
            twiddle[k] = std::polar(1.0, -2.0 * M_PI * k / n);
        ready = true;
    }
    double energy = 0;
    for (int rep = 0; rep < 150; ++rep) {
        for (std::size_t i = 0; i < n; ++i)
            x[i] = {std::sin(0.01 * (i + rep)), 0.0};
        for (std::size_t i = 1, j = 0; i < n; ++i) {
            std::size_t bit = n >> 1;
            for (; j & bit; bit >>= 1)
                j ^= bit;
            j ^= bit;
            if (i < j)
                std::swap(x[i], x[j]);
        }
        for (std::size_t len = 2; len <= n; len <<= 1)
            for (std::size_t i = 0; i < n; i += len)
                for (std::size_t k = 0; k < len / 2; ++k) {
                    auto u = x[i + k];
                    auto v = x[i + k + len / 2] * twiddle[k * (n / len)];
                    x[i + k] = u + v;
                    x[i + k + len / 2] = u - v;
                }
        for (auto &c : x)
            energy += std::norm(c);
    }
    g_referenceSink.store(energy, std::memory_order_relaxed);
}

/** A table-driven CRC-32 and a byte-framing state machine, eight
 *  passes over 64 KiB. */
void
crcKernel()
{
    static std::vector<std::uint8_t> bytes(1 << 16);
    static std::uint32_t table[256];
    static bool ready = false;
    if (!ready) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = c & 1 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        for (std::size_t i = 0; i < bytes.size(); ++i)
            bytes[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
        ready = true;
    }
    std::uint32_t crc = ~0u, frames = 0;
    int state = 0;
    for (int pass = 0; pass < 8; ++pass)
        for (const std::uint8_t byte : bytes) {
            const std::uint8_t b = byte ^ static_cast<std::uint8_t>(pass);
            crc = table[(crc ^ b) & 0xff] ^ (crc >> 8);
            if (b == 0x7e) {
                if (state == 2)
                    ++frames;
                state = 1;
            } else if (state == 1 && b == 0x7d) {
                state = 3;
            } else if (state != 0) {
                state = 2;
            }
        }
    g_referenceSink.store(crc + frames, std::memory_order_relaxed);
}

} // namespace

void
setTracing(bool on)
{
    g_tracing.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return g_tracing.load(std::memory_order_relaxed);
}

void
setSpeedProbe(SpeedProbe probe)
{
    g_speedProbe.store(probe, std::memory_order_relaxed);
}

double
referenceKernel(SpeedProbe probe)
{
    if (probe == SpeedProbe::Off)
        return 0.0;
    const double t0 = nowSeconds();
    fftKernel();
    if (probe == SpeedProbe::FftCrc)
        crcKernel();
    return nowSeconds() - t0;
}

double
nominalReferenceSeconds(SpeedProbe probe)
{
    switch (probe) {
    case SpeedProbe::Fft:
        return 1.55e-3;
    case SpeedProbe::FftCrc:
        return 3.0e-3;
    case SpeedProbe::Off:
        break;
    }
    return 0.0;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Span::Span(const char *name) : Span(name, currentSpan())
{
}

Span::Span(const char *name, int parent)
{
    if (!tracing())
        return;
    record.refSeconds =
        referenceKernel(g_speedProbe.load(std::memory_order_relaxed));
    record.id = allocateId();
    record.parent = parent;
    record.name = name;
    t_open.push_back(record.id);
    record.start = nowSeconds();
}

Span::~Span()
{
    if (record.id < 0)
        return;
    record.end = nowSeconds();
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(g_mutex);
    g_finished.push_back(std::move(record));
}

int
currentSpan()
{
    return t_open.empty() ? -1 : t_open.back();
}

std::vector<SpanRecord>
takeSpans()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    std::vector<SpanRecord> out;
    out.swap(g_finished);
    return out;
}

std::vector<double>
selfSeconds(const std::vector<SpanRecord> &spans)
{
    std::map<int, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;

    // Children's intervals, clipped to their parent.
    std::vector<std::vector<std::pair<double, double>>> covered(
        spans.size());
    for (const auto &child : spans) {
        const auto it = index.find(child.parent);
        if (it == index.end())
            continue;
        const SpanRecord &parent = spans[it->second];
        const double begin = std::max(child.start, parent.start);
        const double end = std::min(child.end, parent.end);
        if (end > begin)
            covered[it->second].emplace_back(begin, end);
    }

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &intervals = covered[i];
        std::sort(intervals.begin(), intervals.end());
        double union_len = 0.0;
        double run_begin = 0.0, run_end = 0.0;
        bool open = false;
        for (const auto &[begin, end] : intervals) {
            if (open && begin <= run_end) {
                run_end = std::max(run_end, end);
                continue;
            }
            if (open)
                union_len += run_end - run_begin;
            run_begin = begin;
            run_end = end;
            open = true;
        }
        if (open)
            union_len += run_end - run_begin;
        self[i] = (spans[i].end - spans[i].start) - union_len;
    }
    return self;
}

std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans)
{
    const auto self = selfSeconds(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

double
referenceUnits(const std::vector<SpanRecord> &spans, int root)
{
    std::map<int, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    if (!index.count(root))
        throw std::runtime_error("referenceUnits: no root span");
    const auto in_tree = [&](int id) {
        for (auto it = index.find(id); it != index.end();
             it = index.find(spans[it->second].parent))
            if (it->first == root)
                return true;
        return false;
    };

    const auto self = selfSeconds(spans);
    std::vector<double> own(spans.size(), 0.0);
    std::vector<bool> part(spans.size(), false);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!in_tree(spans[i].id))
            continue;
        part[i] = true;
        own[i] += self[i];
        const auto parent = index.find(spans[i].parent);
        if (spans[i].id != root && parent != index.end())
            own[parent->second] -= spans[i].refSeconds;
    }
    double units = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!part[i])
            continue;
        if (!(spans[i].refSeconds > 0.0))
            throw std::runtime_error("referenceUnits: span " +
                                     spans[i].name +
                                     " has no reference time");
        units += std::max(0.0, own[i]) / spans[i].refSeconds;
    }
    return units;
}

} // namespace perfbench
