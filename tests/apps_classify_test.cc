/**
 * @file
 * Bit-level golden for the audio applications' main-CPU classifiers
 * (siren, music journal, phrase). Every detection time returned by
 * classify() over the full trace and over ranges that start and end
 * off the classifiers' hop grids is folded into one FNV-1a digest per
 * application and corpus seed. The expected lines were generated
 * before the classifiers were rewritten to compute only the features
 * their predicates read; that rewrite must leave every bit unchanged.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "trace/audio_gen.h"

namespace sidewinder::apps {
namespace {

/** FNV-1a over 64-bit words. */
struct Fnv1a
{
    std::uint64_t state = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            state ^= (word >> (8 * byte)) & 0xffU;
            state *= 0x100000001b3ULL;
        }
    }
};

/**
 * [begin, end) ranges of a trace of @p n samples: the whole trace,
 * three ranges whose ends miss every hop (128, 256, 1024 samples),
 * and one whose end runs past the trace.
 */
std::vector<std::pair<std::size_t, std::size_t>>
ranges(std::size_t n)
{
    return {{0, n},
            {777, n / 3 + 4001},
            {n / 3 + 12345, 2 * n / 3 + 99},
            {2 * n / 3 + 3, n - 513},
            {n / 2 + 1, n + 100}};
}

/**
 * The paper's three-environment corpus plus one event-dense office
 * recording in which every speech segment carries the phrase (the
 * corpus alone is too sparse to exercise every classifier's runs).
 */
std::vector<trace::Trace>
classifierTraces(std::uint64_t seed)
{
    auto traces = trace::generateAudioCorpus(120.0, seed);
    trace::AudioTraceConfig dense;
    dense.durationSeconds = 120.0;
    dense.sirenFraction = 0.1;
    dense.musicFraction = 0.2;
    dense.speechFraction = 0.2;
    dense.phraseProbability = 1.0;
    dense.seed = seed;
    traces.push_back(trace::generateAudioTrace(dense));
    return traces;
}

std::string
classifyDigest(const Application &app, std::uint64_t seed)
{
    Fnv1a digest;
    std::size_t detections = 0;
    for (const auto &trace : classifierTraces(seed)) {
        const std::size_t n = trace.channels[0].size();
        for (const auto &[begin, end] : ranges(n)) {
            const auto times = app.classify(trace, begin, end);
            digest.add(times.size());
            for (double t : times)
                digest.add(std::bit_cast<std::uint64_t>(t));
            detections += times.size();
        }
    }
    char line[96];
    std::snprintf(line, sizeof line, "detections=%zu digest=%016llx",
                  detections,
                  static_cast<unsigned long long>(digest.state));
    return line;
}

TEST(AppsClassify, GoldenDigest)
{
    struct Case
    {
        std::unique_ptr<Application> (*make)();
        std::uint64_t seed;
        const char *expected;
    };
    const Case cases[] = {
        {makeSirenApp, 1, "detections=22 digest=04aa79194811e644"},
        {makeSirenApp, 5, "detections=16 digest=d3b0880d9799b8b1"},
        {makeMusicJournalApp, 1, "detections=13 digest=251b45f54cd41fd6"},
        {makeMusicJournalApp, 5, "detections=15 digest=d5040ce4e4a203b7"},
        {makePhraseApp, 1, "detections=15 digest=e4ce86221379a4f1"},
        {makePhraseApp, 5, "detections=10 digest=80328a23e4fcf98d"},
    };
    for (const auto &c : cases) {
        const auto app = c.make();
        EXPECT_EQ(classifyDigest(*app, c.seed), c.expected)
            << app->name() << " seed " << c.seed;
    }
}

} // namespace
} // namespace sidewinder::apps
