/**
 * @file
 * Tests for the deterministic RNG: reproducibility, distribution
 * sanity, the Zipf sampler's shape, and the thread-compatibility of
 * the split-seed helpers (one private Rng per stream).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "util/rng.hh"

using namespace cllm;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, SplitMixIsStateful)
{
    std::uint64_t s = 42;
    const std::uint64_t v1 = splitmix64(s);
    const std::uint64_t v2 = splitmix64(s);
    EXPECT_NE(v1, v2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 7u);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(13);
    EXPECT_EQ(rng.uniformInt(5, 5), 5u);
}

TEST(Rng, GaussianMomentsMatch)
{
    Rng rng(17);
    const int n = 200000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShiftScale)
{
    Rng rng(19);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalMedianIsParameter)
{
    Rng rng(23);
    std::vector<double> v;
    for (int i = 0; i < 50001; ++i)
        v.push_back(rng.lognormal(4.0, 0.5));
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    EXPECT_NEAR(v[v.size() / 2], 4.0, 0.1);
}

TEST(Rng, LognormalAlwaysPositive)
{
    Rng rng(29);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(rng.lognormal(1.0, 1.0), 0.0);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(31);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(37);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ZipfRespectsSupport)
{
    Rng rng(41);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.zipf(100, 1.1), 100u);
}

TEST(Rng, ZipfHeadHeavierThanTail)
{
    Rng rng(43);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        ++counts[rng.zipf(1000, 1.2)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], 50000 / 50); // rank 0 clearly dominant
}

TEST(Rng, ZipfSingleElement)
{
    Rng rng(47);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.zipf(1, 1.0), 0u);
}

TEST(Rng, ZipfApproximatesPowerLaw)
{
    Rng rng(53);
    const double s = 1.0;
    std::map<std::uint64_t, int> counts;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.zipf(10000, s)];
    // count(rank 1) / count(rank 2) should approximate 2^s = 2.
    ASSERT_GT(counts[0], 0);
    ASSERT_GT(counts[1], 0);
    const double ratio =
        static_cast<double>(counts[0]) / counts[1];
    EXPECT_NEAR(ratio, 2.0, 0.4);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(59);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    auto orig = v;
    rng.shuffle(v);
    EXPECT_NE(v, orig); // astronomically unlikely to be identity
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, SplitSeedIsPureAcrossCalls)
{
    // splitSeed must be a pure function of (root, stream): repeated
    // and interleaved calls cannot perturb each other.
    const std::uint64_t a1 = splitSeed(99, 0);
    const std::uint64_t b1 = splitSeed(99, 1);
    const std::uint64_t a2 = splitSeed(99, 0);
    const std::uint64_t b2 = splitSeed(99, 1);
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(b1, b2);
    EXPECT_NE(a1, b1);
}

TEST(Rng, ConcurrentSplitSeedStreamsMatchSerialReference)
{
    // The supported concurrency pattern: each task derives a child
    // seed with splitSeed(root, stream) and owns a private Rng. The
    // draws of every stream must be identical whether the streams run
    // serially on one thread or concurrently on many.
    constexpr std::uint64_t kRoot = 0xabcdef12345ULL;
    constexpr unsigned kStreams = 16;
    constexpr int kDraws = 2000;

    std::vector<std::vector<std::uint64_t>> serial(kStreams);
    for (unsigned s = 0; s < kStreams; ++s) {
        Rng rng(splitSeed(kRoot, s));
        for (int i = 0; i < kDraws; ++i)
            serial[s].push_back(rng.next());
    }

    std::vector<std::vector<std::uint64_t>> parallel(kStreams);
    std::vector<std::thread> workers;
    for (unsigned s = 0; s < kStreams; ++s) {
        workers.emplace_back([&, s] {
            Rng rng(splitSeed(kRoot, s));
            for (int i = 0; i < kDraws; ++i)
                parallel[s].push_back(rng.next());
        });
    }
    for (auto &w : workers)
        w.join();

    for (unsigned s = 0; s < kStreams; ++s)
        EXPECT_EQ(serial[s], parallel[s]) << "stream " << s;
}

TEST(Rng, ConcurrentGaussianStreamsMatchSerialReference)
{
    // Box-Muller keeps per-instance spare state; confirm the state
    // stays private to each stream's Rng under concurrency.
    constexpr unsigned kStreams = 8;
    constexpr int kDraws = 1000;

    std::vector<std::vector<double>> serial(kStreams);
    for (unsigned s = 0; s < kStreams; ++s) {
        Rng rng(splitSeed(7, s));
        for (int i = 0; i < kDraws; ++i)
            serial[s].push_back(rng.gaussian());
    }

    std::vector<std::vector<double>> parallel(kStreams);
    std::vector<std::thread> workers;
    for (unsigned s = 0; s < kStreams; ++s) {
        workers.emplace_back([&, s] {
            Rng rng(splitSeed(7, s));
            for (int i = 0; i < kDraws; ++i)
                parallel[s].push_back(rng.gaussian());
        });
    }
    for (auto &w : workers)
        w.join();

    for (unsigned s = 0; s < kStreams; ++s)
        EXPECT_EQ(serial[s], parallel[s]) << "stream " << s;
}

TEST(RngDeath, LognormalNonPositiveMedianPanics)
{
    Rng rng(61);
    EXPECT_DEATH(rng.lognormal(0.0, 1.0), "median");
}

TEST(RngDeath, UniformIntReversedBoundsPanics)
{
    Rng rng(67);
    EXPECT_DEATH(rng.uniformInt(10, 3), "lo > hi");
}
