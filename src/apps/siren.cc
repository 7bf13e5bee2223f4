/**
 * @file
 * Siren detector (Section 3.7.2 of the paper): "applies a 750 Hz
 * high-pass filter ... transformed to the frequency domain using a FFT
 * in order to extract the magnitude of the dominant frequency and the
 * mean magnitude of all frequency bins. The ratio ... is used to
 * determine if the window contains pitched sounds. Pitched sounds
 * between 850 Hz and 1800 Hz that last longer than 650 ms are
 * classified as sirens."
 *
 * The wake-up condition needs audio-rate FFTs, which is why this is
 * the one application whose hub condition requires the LM4F120
 * microcontroller (Table 2 of the paper).
 */

#include "apps/apps.h"

#include "apps/audio_features.h"
#include "core/algorithm.h"
#include "core/sensors.h"
#include "dsp/features.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/filters.h"
#include "trace/types.h"

namespace sidewinder::apps {

namespace {

/** Hub analysis window: 64 ms at 4 kHz. */
constexpr int wakeWindowSize = 256;
/** High-pass cutoff from the paper, Hz. */
constexpr double highPassCutoffHz = 750.0;
/** Pitchedness (dominant / mean magnitude) admission ratio. */
constexpr double pitchRatio = 4.0;
/** Siren frequency band from the paper, Hz. */
constexpr double sirenBandLowHz = 850.0;
constexpr double sirenBandHighHz = 1800.0;
/**
 * Consecutive pitched windows required: 11 x 64 ms covers the paper's
 * "longer than 650 ms".
 */
constexpr int wakeConsecutiveWindows = 11;

/** Main classifier: same features, finer hop, tighter ratio. */
constexpr std::size_t classifierWindow = 256;
constexpr std::size_t classifierHop = 128;
constexpr double classifierPitchRatio = 5.0;
constexpr double classifierMinDurationSeconds = 0.65;

class SirenApp : public Application
{
  public:
    std::string name() const override { return "siren"; }

    std::string eventType() const override
    {
        return trace::event_type::siren;
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

        // Two branches share the window/high-pass/FFT prefix (the hub
        // engine deduplicates the common nodes).
        ProcessingBranch pitched(channel::audio);
        pitched.add(Window(wakeWindowSize, true))
            .add(HighPassFilter(highPassCutoffHz))
            .add(Fft())
            .add(Spectrum())
            .add(PeakToMeanRatio())
            .add(MinThreshold(pitchRatio));

        ProcessingBranch in_band(channel::audio);
        in_band.add(Window(wakeWindowSize, true))
            .add(HighPassFilter(highPassCutoffHz))
            .add(Fft())
            .add(Spectrum())
            .add(DominantFrequencyHz())
            .add(BandThreshold(sirenBandLowHz, sirenBandHighHz));

        // Music whose upper harmonics pass the 750 Hz filter still
        // has its fundamental below the siren band; requiring the
        // *unfiltered* dominant frequency in band as well rejects it
        // (same discrimination the main-CPU classifier applies).
        ProcessingBranch overall(channel::audio);
        overall.add(Window(wakeWindowSize, true))
            .add(Fft())
            .add(Spectrum())
            .add(DominantFrequencyHz())
            .add(BandThreshold(sirenBandLowHz, sirenBandHighHz));

        pipeline.add(std::move(pitched));
        pipeline.add(std::move(in_band));
        pipeline.add(std::move(overall));
        pipeline.add(And());
        pipeline.add(Consecutive(wakeConsecutiveWindows));
        return pipeline;
    }

    std::vector<double>
    classify(const trace::Trace &trace, std::size_t begin,
             std::size_t end) const override
    {
        const dsp::FftBlockFilter high_pass(dsp::PassBand::HighPass,
                                            highPassCutoffHz,
                                            trace.sampleRateHz);
        const auto plan = dsp::FftPlan::forSize(classifierWindow);
        std::vector<dsp::Complex> spectrum;
        std::vector<double> mags;
        std::vector<double> high_passed;

        // Strongest non-DC bin of the frame's magnitude spectrum.
        auto dominant = [&](const std::vector<double> &frame) {
            dsp::magnitudeSpectrumInto(frame, *plan, spectrum, mags);
            return dsp::dominantFrequency(mags);
        };
        auto in_band = [&](const dsp::DominantFrequency &dom) {
            const double hz = dsp::binFrequencyHz(
                dom.bin, classifierWindow, trace.sampleRateHz);
            return hz >= sirenBandLowHz && hz <= sirenBandHighHz;
        };

        // A real siren dominates the *unfiltered* spectrum too; music
        // whose upper harmonics leak past the high-pass still has its
        // fundamental (< 850 Hz) dominating overall and is rejected
        // by that test, which is also the cheaper one (no filter).
        return runsOfFlaggedWindows(
            trace, begin, end, classifierWindow, classifierHop,
            classifierMinDurationSeconds, 0.2,
            [&](const std::vector<double> &frame) {
                if (!in_band(dominant(frame)))
                    return false;
                high_pass.applyInto(frame, high_passed);
                const auto hp = dominant(high_passed);
                return hp.peakToMeanRatio() >= classifierPitchRatio &&
                       in_band(hp);
            });
    }

    double matchTolerance() const override { return 1.5; }

    bool coalesceDetections() const override { return true; }
};

} // namespace

std::unique_ptr<Application>
makeSirenApp()
{
    return std::make_unique<SirenApp>();
}

} // namespace sidewinder::apps
