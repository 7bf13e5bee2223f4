#include "apps/audio_features.h"

#include <algorithm>

#include "support/error.h"

namespace sidewinder::apps {

std::vector<double>
runsOfFlaggedWindows(const trace::Trace &trace, std::size_t begin,
                     std::size_t end, std::size_t window, std::size_t hop,
                     double min_duration, double max_gap,
                     const WindowPredicate &flagged)
{
    if (hop == 0 || hop > window)
        throw ConfigError("audio window hop must be in [1, window]");

    const auto &samples = trace.channels[trace.channelIndex("AUDIO")];
    end = std::min(end, samples.size());

    std::vector<double> detections;
    double run_start = 0.0;
    double run_end = 0.0;
    bool in_run = false;

    auto close_run = [&]() {
        if (in_run && run_end - run_start >= min_duration)
            detections.push_back(0.5 * (run_start + run_end));
        in_run = false;
    };

    std::vector<double> frame;
    for (std::size_t start = begin; start + window <= end;
         start += hop) {
        frame.assign(samples.begin() + static_cast<long>(start),
                     samples.begin() + static_cast<long>(start + window));
        if (!flagged(frame))
            continue;
        const double t = trace.timeOf(start + window / 2);
        if (in_run && t - run_end <= max_gap) {
            run_end = t;
        } else {
            close_run();
            in_run = true;
            run_start = t;
            run_end = t;
        }
    }
    close_run();
    return detections;
}

} // namespace sidewinder::apps
