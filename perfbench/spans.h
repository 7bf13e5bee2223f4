/**
 * @file
 * In-memory span recorder for the benchmark's traced runs. A span is
 * one call from the benchmark into a library layer: its name (the
 * per-layer metric it feeds), host start/end time, and the span that
 * caused it. Spans are kept in memory and read back when the run ends;
 * when tracing is off a Span costs one relaxed load.
 *
 * With the speed probe on, each span first runs a reference kernel, a
 * fixed computation of the benchmark's own, and records how long it
 * took. Other tenants of a shared host slow a core by tens of percent
 * for seconds to minutes at a time; the kernel's time just before a
 * part of the work says how fast the core was while that part ran.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One finished span. Times are host seconds on a steady clock. */
struct SpanRecord
{
    int id = -1;
    /** Id of the causing span; -1 for a root. */
    int parent = -1;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Seconds the reference kernel took just before the span opened
     *  (outside [start, end]); 0 when the speed probe was off. */
    double refSeconds = 0.0;
};

/** Turn recording on or off for spans opened from now on. */
void setTracing(bool on);
bool tracing();

/**
 * The reference kernel a speed probe runs. A busy neighbour slows
 * different code by different amounts, so a workload picks the kernel
 * whose slowdowns track its own:
 * - Fft: 150 radix-2 FFTs of 512 complex points (about 1.6 ms on an
 *   unslowed core), for FFT-heavy work;
 * - FftCrc: the same, then a table-driven CRC-32 and a byte-framing
 *   state machine over 512 KiB (about 1.4 ms more, and barely slowed by
 *   neighbours), for work that mixes arithmetic with table lookups
 *   and branches.
 * The kernels keep their buffers in statics: run them from one thread
 * at a time.
 */
enum class SpeedProbe { Off, Fft, FftCrc };

/** Set the speed probe for spans opened from now on. */
void setSpeedProbe(SpeedProbe probe);

/** Run the reference kernel of @p probe once; returns its host
 *  seconds (0 for Off). */
double referenceKernel(SpeedProbe probe);

/**
 * The nominal time of the reference kernel of @p probe: about its
 * fastest time on the host the bounds were set on (a 4-vCPU Xeon
 * virtual machine). Times in reference units are reported as seconds
 * at this speed.
 */
double nominalReferenceSeconds(SpeedProbe probe);

/** Host seconds on the steady clock used by every span. */
double nowSeconds();

/**
 * RAII span. The one-argument form's parent is the innermost span
 * still open on the calling thread; cells fanned out to pool workers
 * name their parent explicitly.
 */
class Span
{
  public:
    explicit Span(const char *name);
    Span(const char *name, int parent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id; -1 when tracing was off at construction. */
    int id() const { return record.id; }

  private:
    SpanRecord record;
};

/** Innermost span open on the calling thread; -1 when none. */
int currentSpan();

/** Remove and return every span finished so far. */
std::vector<SpanRecord> takeSpans();

/**
 * Self time of each span: its duration minus the part of its interval
 * covered by its children (overlapping children count once). Indexed
 * like @p spans.
 */
std::vector<double> selfSeconds(const std::vector<SpanRecord> &spans);

/** Sum of self time per span name. */
std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans);

/**
 * The work of the span tree rooted at @p root in reference-kernel
 * units. Each span of the tree is a part: its self time, less the
 * reference runs of its children (which ran inside it), divided by
 * its own reference time. Multiplied by a reference time, this is the
 * tree's time on a core that runs the reference kernel that fast. Throws
 * std::runtime_error when @p root is missing or a part has no
 * reference time.
 */
double referenceUnits(const std::vector<SpanRecord> &spans, int root);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
