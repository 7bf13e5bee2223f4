/**
 * @file
 * Windowed scan shared by the audio applications' main-CPU
 * classifiers (Section 3.7.2 of the paper). Each classifier supplies
 * a per-window predicate that computes only the features it reads,
 * cheapest test first; the scan owns the one frame buffer and groups
 * flagged windows into detections.
 */

#ifndef SIDEWINDER_APPS_AUDIO_FEATURES_H
#define SIDEWINDER_APPS_AUDIO_FEATURES_H

#include <cstddef>
#include <functional>
#include <vector>

#include "trace/types.h"

namespace sidewinder::apps {

/** Per-window predicate: true when the analysis window is flagged. */
using WindowPredicate = std::function<bool(const std::vector<double> &)>;

/**
 * Slide a @p window sample frame by @p hop over the audio channel of
 * @p trace, visiting every frame fully contained in [@p begin,
 * @p end), and group consecutive frames for which @p flagged holds
 * into runs. A frame's time is its midpoint, seconds from trace
 * start; frames are consecutive when their times differ by at most
 * @p max_gap seconds. Returns the midpoint time of each run at least
 * @p min_duration long.
 *
 * @p flagged sees one reused frame buffer, so it may keep per-call
 * scratch of its own but must not hold on to the frame.
 *
 * @throws ConfigError unless 1 <= @p hop <= @p window.
 */
std::vector<double>
runsOfFlaggedWindows(const trace::Trace &trace, std::size_t begin,
                     std::size_t end, std::size_t window, std::size_t hop,
                     double min_duration, double max_gap,
                     const WindowPredicate &flagged);

} // namespace sidewinder::apps

#endif // SIDEWINDER_APPS_AUDIO_FEATURES_H
