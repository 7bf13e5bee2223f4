/**
 * @file
 * Phrase detection (Section 3.7.2 of the paper): "Similar to Music
 * Journal, except different parameters are used in the wake-up
 * condition and Google Speech API was used for speech-to-text
 * translation."
 *
 * The wake-up condition is a *speech* detector — high amplitude
 * variance plus high ZCR variance (alternating voiced/unvoiced
 * syllables). It therefore wakes the phone for every speech segment
 * (~5% of each trace) even though the phrase itself occupies < 1%,
 * which is exactly the suboptimality the paper analyzes in
 * Section 5.2.
 *
 * In place of the Google Speech API (a network service we do not
 * have), the main-CPU classifier recognizes the phrase's synthetic
 * acoustic signature: 125 ms slots alternating a 440 + 660 Hz chord
 * with unvoiced noise (see trace/audio_gen.cc and DESIGN.md).
 */

#include "apps/apps.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/window.h"
#include "core/algorithm.h"
#include "core/sensors.h"
#include "trace/types.h"

namespace sidewinder::apps {

namespace {

/** Hub analysis window: 512 ms at 4 kHz. */
constexpr int wakeWindowSize = 2048;
constexpr int zcrSubWindow = 64;
constexpr int zcrGroup = 32;
/** Speech is quieter than music: lower loudness admission. */
constexpr double minAmplitudeVariance = 0.004;
/** Speech has *high* ZCR variance (voiced/unvoiced alternation). */
constexpr double minZcrVariance = 0.008;
constexpr int wakeConsecutiveWindows = 2;

/** Phrase recognizer parameters. */
constexpr std::size_t classifierWindow = 512;
constexpr std::size_t classifierHop = 256;
constexpr double toneAHz = 440.0;
constexpr double toneBHz = 660.0;
/** Half-width of each tone's acceptance region, Hz. */
constexpr double toneToleranceHz = 16.0;
/** Both tone regions must exceed this multiple of the mean bin. */
constexpr double toneProminence = 5.0;
/** Guard bands around the tones must stay below this multiple. */
constexpr double guardProminence = 4.0;
constexpr double classifierMinDurationSeconds = 0.6;

class PhraseApp : public Application
{
  public:
    std::string name() const override { return "phrase"; }

    std::string eventType() const override
    {
        return trace::event_type::phrase;
    }

    std::vector<il::ChannelInfo> channels() const override
    {
        return core::audioChannels();
    }

    core::ProcessingPipeline
    wakeCondition() const override
    {
        using namespace core;
        ProcessingPipeline pipeline;

        ProcessingBranch loudness(channel::audio);
        loudness.add(Window(wakeWindowSize))
            .add(Variance())
            .add(MinThreshold(minAmplitudeVariance));

        ProcessingBranch syllables(channel::audio);
        syllables.add(Window(zcrSubWindow))
            .add(ZeroCrossingRate())
            .add(Window(zcrGroup))
            .add(Variance())
            .add(MinThreshold(minZcrVariance));

        pipeline.add(std::move(loudness));
        pipeline.add(std::move(syllables));
        pipeline.add(And());
        pipeline.add(Consecutive(wakeConsecutiveWindows));
        return pipeline;
    }

    std::vector<double>
    classify(const trace::Trace &trace, std::size_t begin,
             std::size_t end) const override
    {
        const auto &samples =
            trace.channels[trace.channelIndex("AUDIO")];
        end = std::min(end, samples.size());

        // Per-call constants: the Hamming coefficients and the bins
        // of the two tone regions and the three guard bands around
        // them.
        std::vector<double> hamming(classifierWindow);
        for (std::size_t i = 0; i < classifierWindow; ++i)
            hamming[i] = dsp::hammingCoefficient(i, classifierWindow);
        auto band = [&](double lo_hz, double hi_hz) {
            return bandBins(lo_hz, hi_hz, trace.sampleRateHz);
        };
        const BinRange tone_a = band(toneAHz - toneToleranceHz,
                                     toneAHz + toneToleranceHz);
        const BinRange tone_b = band(toneBHz - toneToleranceHz,
                                     toneBHz + toneToleranceHz);
        const BinRange guards[] = {
            band(300.0, toneAHz - 2.5 * toneToleranceHz),
            band(toneAHz + 2.5 * toneToleranceHz,
                 toneBHz - 2.5 * toneToleranceHz),
            band(toneBHz + 2.5 * toneToleranceHz, 1000.0)};

        const auto plan = dsp::FftPlan::forSize(classifierWindow);
        std::vector<double> frame(classifierWindow);
        std::vector<dsp::Complex> spectrum;
        std::vector<double> mags;
        auto peak = [&](BinRange range) {
            double best = 0.0;
            for (std::size_t i = range.first; i < range.last; ++i)
                best = std::max(best, mags[i]);
            return best;
        };

        // True when the window at @p start carries both phrase tones
        // prominently and nothing else: music chords whose harmonics
        // graze the tone regions always light up neighbouring
        // frequencies too, so quiet guard bands around the tones
        // reject them.
        auto has_chord = [&](std::size_t start) {
            // Hamming windowing keeps tone energy out of the guard
            // bands.
            for (std::size_t i = 0; i < classifierWindow; ++i)
                frame[i] = samples[start + i] * hamming[i];
            dsp::magnitudeSpectrumInto(frame, *plan, spectrum, mags);
            double total = 0.0;
            for (std::size_t i = 1; i < mags.size(); ++i)
                total += mags[i];
            const double mean_mag =
                total / static_cast<double>(mags.size() - 1);
            if (mean_mag <= 0.0)
                return false;
            return peak(tone_a) >= toneProminence * mean_mag &&
                   peak(tone_b) >= toneProminence * mean_mag &&
                   std::max({peak(guards[0]), peak(guards[1]),
                             peak(guards[2])}) <
                       guardProminence * mean_mag;
        };

        // Scan windows for the dual-tone chord signature; group
        // consecutive hits into a phrase detection.
        std::vector<double> detections;
        double run_start = -1.0;
        double run_end = -1.0;

        auto close_run = [&]() {
            if (run_start >= 0.0 &&
                run_end - run_start >= classifierMinDurationSeconds)
                detections.push_back(0.5 * (run_start + run_end));
            run_start = -1.0;
        };

        for (std::size_t start = begin;
             start + classifierWindow <= end; start += classifierHop) {
            const double t =
                trace.timeOf(start + classifierWindow / 2);

            if (has_chord(start)) {
                if (run_start < 0.0)
                    run_start = t;
                run_end = t;
            } else if (run_start >= 0.0 &&
                       t - run_end > 0.3) {
                close_run();
            }
        }
        close_run();
        return detections;
    }

    double matchTolerance() const override { return 1.5; }

    bool coalesceDetections() const override { return true; }

    /**
     * The phrase may sit at the very start of its speech segment
     * while the wake condition needs ~2-3 s of sustained speech to
     * fire, so the hub must buffer deeper history than the default.
     */
    double recommendedLookbackSeconds() const override { return 5.0; }

  private:
    /** Spectrum bins [first, last) of one frequency band. */
    struct BinRange
    {
        std::size_t first = 0;
        std::size_t last = 0;
    };

    /**
     * The non-DC bins of a classifierWindow transform whose frequency
     * lies in [@p lo_hz, @p hi_hz]. Bin frequency rises with the bin
     * index, so they form one contiguous range.
     */
    static BinRange
    bandBins(double lo_hz, double hi_hz, double sample_rate_hz)
    {
        BinRange range;
        for (std::size_t i = 1; i <= classifierWindow / 2; ++i) {
            const double f =
                dsp::binFrequencyHz(i, classifierWindow, sample_rate_hz);
            if (f >= lo_hz && f <= hi_hz) {
                if (range.first == range.last)
                    range.first = i;
                range.last = i + 1;
            }
        }
        return range;
    }
};

} // namespace

std::unique_ptr<Application>
makePhraseApp()
{
    return std::make_unique<PhraseApp>();
}

} // namespace sidewinder::apps
