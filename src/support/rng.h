/**
 * @file
 * Deterministic random number generation for trace synthesis.
 *
 * All trace generators draw from a Rng seeded explicitly so that every
 * experiment in the repository is exactly reproducible. The paper's
 * robot runs randomize the order of actions per run (Section 4.1); we
 * reproduce that with per-run seeds.
 */

#ifndef SIDEWINDER_SUPPORT_RNG_H
#define SIDEWINDER_SUPPORT_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace sidewinder {

/**
 * MT19937-64 with the output sequence of std::mt19937_64: the same
 * seeding recurrence, twist and tempering. The twist applies the
 * matrix term as a mask (-(y & 1) & A) instead of a data-dependent
 * branch, which is what makes it cheaper than the library engine at
 * our build flags; the outputs are identical.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt19937_64(result_type seed)
    {
        state[0] = seed;
        for (std::size_t i = 1; i < n; ++i)
            state[i] = 6364136223846793005ULL *
                           (state[i - 1] ^ (state[i - 1] >> 62)) +
                       i;
    }

    result_type
    operator()()
    {
        if (index >= n)
            twist();
        result_type y = state[index++];
        y ^= (y >> 29) & 0x5555555555555555ULL;
        y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
        y ^= (y << 37) & 0xFFF7EEE000000000ULL;
        y ^= y >> 43;
        return y;
    }

  private:
    static constexpr std::size_t n = 312;
    static constexpr std::size_t m = 156;

    static result_type
    mix(result_type upper, result_type lower, result_type far)
    {
        const result_type y = (upper & ~result_type{0x7FFFFFFF}) |
                              (lower & result_type{0x7FFFFFFF});
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ULL);
    }

    void
    twist()
    {
        std::size_t i = 0;
        for (; i < n - m; ++i)
            state[i] = mix(state[i], state[i + 1], state[i + m]);
        for (; i < n - 1; ++i)
            state[i] = mix(state[i], state[i + 1], state[i + m - n]);
        state[n - 1] = mix(state[n - 1], state[0], state[m - 1]);
        index = 0;
    }

    std::array<result_type, n> state{};
    std::size_t index = n;
};

/**
 * The integer form of a Bernoulli trial on one raw 64-bit draw: a
 * draw succeeds iff it is below @c threshold, or always when
 * @c always is set. "Always" is a flag, not a threshold value, since
 * every threshold in [0, 2^64) is a real cut that some draw fails.
 */
struct BernoulliCut
{
    std::uint64_t threshold = 0;
    bool always = false;

    bool hit(std::uint64_t draw) const { return always || draw < threshold; }
};

/** A seeded pseudo-random source with the sampling helpers we need. */
template <typename Engine>
class BasicRng
{
  public:
    /** Construct with an explicit seed; equal seeds yield equal streams. */
    explicit BasicRng(std::uint64_t seed) : engine(seed) {}

    /** One raw engine output (consumes exactly one draw). */
    std::uint64_t next() { return engine(); }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        std::uniform_real_distribution<double> dist(lo, hi);
        return dist(engine);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        std::uniform_int_distribution<std::int64_t> dist(lo, hi);
        return dist(engine);
    }

    /** Normal deviate with the given mean and standard deviation. */
    double
    gaussian(double mean, double stddev)
    {
        std::normal_distribution<double> dist(mean, stddev);
        return dist(engine);
    }

    /** Bernoulli trial that succeeds with probability @p p. */
    bool
    chance(double p)
    {
        std::bernoulli_distribution dist(p);
        return dist(engine);
    }

    /**
     * The cut for which bernoulliCut(p).hit(next()) makes the same
     * decision as chance(p) on the same draw. std::bernoulli_distribution
     * succeeds iff double(x) / 2^64 (clamped below 1) is below @p p,
     * which is monotone in the draw x, so the successes are a prefix
     * [0, threshold) that bisection finds by asking the real
     * distribution about a generator that returns one fixed draw.
     */
    static BernoulliCut
    bernoulliCut(double p)
    {
        static_assert(Engine::min() == 0 &&
                      Engine::max() == ~std::uint64_t{0});
        // Outside [0, 1] (and for NaN) the library's comparison is
        // never or always true; answer without building a
        // distribution whose precondition p does not meet.
        if (!(p >= 0.0))
            return {};
        if (p > 1.0)
            return {0, true};
        const auto succeeds = [p](std::uint64_t x) {
            FixedDraw draw{x};
            return std::bernoulli_distribution(p)(draw);
        };
        std::uint64_t lo = 0;
        std::uint64_t hi = ~std::uint64_t{0};
        if (succeeds(hi))
            return {0, true};
        if (!succeeds(lo))
            return {};
        // succeeds(lo) && !succeeds(hi): narrow to adjacent draws.
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            (succeeds(mid) ? lo : hi) = mid;
        }
        return {hi, false};
    }

    /**
     * Draw an index according to @p weights (need not be normalized).
     * @return index in [0, weights.size()).
     */
    std::size_t
    weightedIndex(const std::vector<double> &weights)
    {
        std::discrete_distribution<std::size_t> dist(weights.begin(),
                                                     weights.end());
        return dist(engine);
    }

    /** Derive an independent child generator (for per-run streams). */
    BasicRng
    fork()
    {
        return BasicRng(engine());
    }

  private:
    /** A generator that returns the same draw every time. */
    struct FixedDraw
    {
        using result_type = std::uint64_t;
        static constexpr result_type min() { return Engine::min(); }
        static constexpr result_type max() { return Engine::max(); }
        result_type operator()() const { return value; }
        result_type value;
    };

    Engine engine;
};

/** The repository's generator: std::mt19937_64's stream, cheaper. */
using Rng = BasicRng<Mt19937_64>;

} // namespace sidewinder

#endif // SIDEWINDER_SUPPORT_RNG_H
