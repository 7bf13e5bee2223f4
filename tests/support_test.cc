/**
 * @file
 * Unit tests for the support module: ring buffer, RNG determinism,
 * the in-repo MT19937-64 against std::mt19937_64, the integer
 * Bernoulli cut, and logging levels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "support/error.h"
#include "support/logging.h"
#include "support/ring_buffer.h"
#include "support/rng.h"

namespace sidewinder {
namespace {

TEST(RingBuffer, RejectsZeroCapacity)
{
    EXPECT_THROW(RingBuffer<int>(0), ConfigError);
}

TEST(RingBuffer, StartsEmpty)
{
    RingBuffer<int> buf(4);
    EXPECT_TRUE(buf.empty());
    EXPECT_FALSE(buf.full());
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.capacity(), 4u);
}

TEST(RingBuffer, FillsInOrder)
{
    RingBuffer<int> buf(3);
    buf.push(1);
    buf.push(2);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf[0], 1);
    EXPECT_EQ(buf[1], 2);
    EXPECT_EQ(buf.front(), 1);
    EXPECT_EQ(buf.back(), 2);
}

TEST(RingBuffer, EvictsOldestWhenFull)
{
    RingBuffer<int> buf(3);
    for (int i = 1; i <= 5; ++i)
        buf.push(i);
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf[0], 3);
    EXPECT_EQ(buf[1], 4);
    EXPECT_EQ(buf[2], 5);
}

TEST(RingBuffer, SnapshotIsOldestFirst)
{
    RingBuffer<int> buf(3);
    for (int i = 1; i <= 4; ++i)
        buf.push(i);
    const auto snap = buf.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0], 2);
    EXPECT_EQ(snap[2], 4);
}

TEST(RingBuffer, ClearResets)
{
    RingBuffer<int> buf(2);
    buf.push(7);
    buf.clear();
    EXPECT_TRUE(buf.empty());
    buf.push(9);
    EXPECT_EQ(buf.front(), 9);
}

TEST(RingBuffer, OutOfRangeIndexThrows)
{
    RingBuffer<int> buf(2);
    buf.push(1);
    EXPECT_THROW(buf[1], InternalError);
}

TEST(RingBuffer, AppendMatchesPushLoop)
{
    // Random append lengths below, at and above capacity, interleaved
    // with single pushes, wrap the tail around many times; after each
    // step the retained elements must equal those of a push loop.
    std::mt19937_64 gen(17);
    for (std::size_t capacity : {1u, 2u, 5u, 16u, 63u}) {
        RingBuffer<int> appended(capacity);
        RingBuffer<int> pushed(capacity);
        std::vector<int> values;
        int next = 0;
        for (int step = 0; step < 400; ++step) {
            std::size_t n;
            switch (step % 4) {
            case 0:
                n = capacity;
                break;
            case 1:
                n = std::uniform_int_distribution<std::size_t>(
                    0, capacity - 1)(gen);
                break;
            case 2:
                n = std::uniform_int_distribution<std::size_t>(
                    capacity + 1, 3 * capacity)(gen);
                break;
            default:
                n = 1;
                break;
            }
            values.resize(n);
            for (auto &v : values)
                v = next++;
            appended.append(values.data(), n);
            for (int v : values)
                pushed.push(v);
            ASSERT_EQ(appended.size(), pushed.size())
                << "capacity " << capacity << " step " << step;
            ASSERT_EQ(appended.snapshot(), pushed.snapshot())
                << "capacity " << capacity << " step " << step;
            ASSERT_EQ(appended.front(), pushed.front());
            ASSERT_EQ(appended.back(), pushed.back());

            // Mixed with pushes on the appended side too.
            appended.push(next);
            pushed.push(next);
            ++next;
            ASSERT_EQ(appended.snapshot(), pushed.snapshot())
                << "capacity " << capacity << " step " << step;
        }
    }
}

TEST(RingBuffer, AppendFromEmptyAndAfterClear)
{
    const std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
    RingBuffer<int> buf(4);
    buf.append(values.data(), 0);
    EXPECT_TRUE(buf.empty());
    buf.append(values.data(), 3);
    EXPECT_EQ(buf.snapshot(), (std::vector<int>{1, 2, 3}));
    buf.append(values.data() + 3, 4);
    EXPECT_EQ(buf.snapshot(), (std::vector<int>{4, 5, 6, 7}));
    buf.clear();
    buf.append(values.data(), values.size());
    EXPECT_EQ(buf.snapshot(), (std::vector<int>{4, 5, 6, 7}));
    EXPECT_TRUE(buf.full());
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0);
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, WeightedIndexSkipsZeroWeights)
{
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const auto idx = rng.weightedIndex({0.0, 1.0, 0.0});
        EXPECT_EQ(idx, 1u);
    }
}

TEST(Rng, GaussianRoughlyCentered)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 1.0);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(99);
    Rng child = a.fork();
    // Child stream differs from the parent's continued stream.
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniform(0.0, 1.0) != child.uniform(0.0, 1.0);
    EXPECT_TRUE(any_diff);
}

TEST(Mt19937_64, MatchesStandardEngine)
{
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
          std::uint64_t{0x5EED5EED}, ~std::uint64_t{0}}) {
        Mt19937_64 ours(seed);
        std::mt19937_64 reference(seed);
        for (int i = 0; i < 1'000'000; ++i)
            ASSERT_EQ(ours(), reference())
                << "seed " << seed << " output " << i;
    }
}

TEST(Mt19937_64, EveryHelperMatchesStandardEngine)
{
    // The same helper code on both engines, so every distribution sees
    // the same raw draws; doubles are compared exactly.
    Rng ours(0x5EED5EED);
    BasicRng<std::mt19937_64> reference(0x5EED5EED);
    const std::vector<double> weights = {0.5, 0.0, 2.0, 1.25};
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 2000; ++i) {
            ASSERT_EQ(ours.next(), reference.next());
            ASSERT_EQ(ours.uniform(-3.0, 7.5), reference.uniform(-3.0, 7.5));
            ASSERT_EQ(ours.uniformInt(0, 7), reference.uniformInt(0, 7));
            ASSERT_EQ(ours.uniformInt(-1000, 1'000'000'007),
                      reference.uniformInt(-1000, 1'000'000'007));
            ASSERT_EQ(ours.gaussian(5.0, 2.0), reference.gaussian(5.0, 2.0));
            ASSERT_EQ(ours.chance(0.3), reference.chance(0.3));
            ASSERT_EQ(ours.chance(2e-3), reference.chance(2e-3));
            ASSERT_EQ(ours.weightedIndex(weights),
                      reference.weightedIndex(weights));
        }
        // Continue down a chain of forks.
        ours = ours.fork();
        reference = reference.fork();
    }
}

/** A generator that returns one fixed draw, to question the library. */
struct FixedDraw
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() const { return value; }
    result_type value;
};

TEST(BernoulliCut, DecidesAsBernoulliDistributionDoes)
{
    constexpr std::uint64_t top = ~std::uint64_t{0};
    Rng draws(0xB17);
    for (const double p :
         {-1.0, 0.0, 4.9e-324, 1e-300, 1e-4, 2e-3, 1e-2, 0.5,
          1.0 - 0x1p-53, 1.0, 1.5}) {
        const BernoulliCut cut = Rng::bernoulliCut(p);
        // std::bernoulli_distribution requires 0 <= p <= 1; outside
        // it, the clamped p gives the answer its comparison would.
        const double legal = std::clamp(p, 0.0, 1.0);
        auto library = [legal](std::uint64_t x) {
            FixedDraw draw{x};
            return std::bernoulli_distribution(legal)(draw);
        };
        for (const std::uint64_t x :
             {std::uint64_t{0}, cut.threshold - 1, cut.threshold,
              cut.threshold + 1, top})
            ASSERT_EQ(cut.hit(x), library(x)) << "p " << p << " x " << x;
        for (int i = 0; i < 100'000; ++i) {
            const std::uint64_t x = draws.next();
            ASSERT_EQ(cut.hit(x), library(x)) << "p " << p << " x " << x;
        }
    }
    EXPECT_TRUE(Rng::bernoulliCut(1.0).always);
    EXPECT_TRUE(Rng::bernoulliCut(1.5).always);
    EXPECT_FALSE(Rng::bernoulliCut(-1.0).hit(0));
    EXPECT_FALSE(Rng::bernoulliCut(0.0).hit(0));
    // The largest p below 1 still fails on the top draws: its cut is a
    // real threshold, told apart from "always" by the flag.
    const BernoulliCut near_one = Rng::bernoulliCut(1.0 - 0x1p-53);
    EXPECT_FALSE(near_one.always);
    EXPECT_TRUE(near_one.hit(near_one.threshold - 1));
    EXPECT_FALSE(near_one.hit(top));
}

TEST(BernoulliCut, RawDrawsMatchChanceDrawForDraw)
{
    for (const double p : {1e-4, 5e-3, 0.205, 0.5}) {
        Rng a(123);
        Rng b(123);
        const BernoulliCut cut = Rng::bernoulliCut(p);
        for (int i = 0; i < 200'000; ++i)
            ASSERT_EQ(cut.hit(a.next()), b.chance(p)) << "p " << p;
    }
}

TEST(Logging, LevelGates)
{
    const LogLevel old_level = logLevel();
    setLogLevel(LogLevel::Error);
    EXPECT_EQ(logLevel(), LogLevel::Error);
    // Should not crash / emit below threshold.
    inform("suppressed");
    warn("suppressed");
    setLogLevel(old_level);
}

} // namespace
} // namespace sidewinder
