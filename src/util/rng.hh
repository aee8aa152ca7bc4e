/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * All cllm randomness flows through Rng so that experiments are exactly
 * reproducible from a seed. The generator is xoshiro256**, seeded via
 * SplitMix64, matching the reference implementations by Blackman and
 * Vigna.
 *
 * Thread compatibility: an Rng instance is NOT safe for concurrent
 * use, but distinct instances share no state, and splitSeed() is a
 * pure function of its arguments — so the supported concurrency
 * pattern is one Rng per task, seeded with splitSeed(root, stream).
 * Each stream's draw sequence is then independent of thread count,
 * scheduling, and how many sibling streams exist (the property
 * test_rng's concurrent-use test pins).
 */

#ifndef CLLM_UTIL_RNG_HH
#define CLLM_UTIL_RNG_HH

#include <cstdint>
#include <vector>

namespace cllm {

/** SplitMix64 step; used for seeding and as a cheap stateless hash. */
std::uint64_t splitmix64(std::uint64_t &state);

/**
 * Derive an independent child seed from a root seed and a stream
 * index. The child depends only on (root, stream), never on how many
 * other streams exist — the property the fleet simulator relies on so
 * that adding a node cannot perturb any other node's fault or
 * workload draws.
 *
 * Pure and stateless (the by-value arguments are untouched), so it
 * may be called concurrently from any number of threads; parallel
 * tasks should derive one child seed per stream index and construct
 * a private Rng from it.
 */
std::uint64_t splitSeed(std::uint64_t root, std::uint64_t stream);

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Deterministic across platforms; not cryptographically secure (the
 * crypto module handles anything security-relevant).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Standard normal via Box-Muller. */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Log-normal such that the *median* of the output is `median`. */
    double lognormal(double median, double sigma);

    /** Bernoulli trial with probability p of true. */
    bool chance(double p);

    /**
     * Zipf-distributed integer in [0, n), exponent s.
     * Uses rejection-inversion (Hormann & Derflinger) for O(1) draws.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(0, i - 1);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace cllm

#endif // CLLM_UTIL_RNG_HH
