/**
 * @file
 * Tests for the statistics helpers, including the paper's Z>3 outlier
 * filter (Section III-D).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/stats.hh"

using namespace cllm;

TEST(OnlineStats, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(OnlineStats, SingleSample)
{
    OnlineStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
}

TEST(OnlineStats, MatchesClosedForm)
{
    OnlineStats s;
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0,
                                    9.0};
    for (double x : xs)
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    // Sample variance with n-1: sum sq dev = 32, / 7.
    EXPECT_NEAR(summarize(xs, 0.0).stddev, std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Percentile, MedianOfOddSet)
{
    EXPECT_DOUBLE_EQ(percentiles({3.0, 1.0, 2.0}, {50.0})[0], 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks)
{
    // p50 of {1,2,3,4} = 2.5 under the linear method.
    EXPECT_DOUBLE_EQ(percentiles({1.0, 2.0, 3.0, 4.0}, {50.0})[0], 2.5);
}

TEST(Percentile, Extremes)
{
    const std::vector<double> v = {5.0, 1.0, 9.0};
    EXPECT_DOUBLE_EQ(percentiles(v, {0.0})[0], 1.0);
    EXPECT_DOUBLE_EQ(percentiles(v, {100.0})[0], 9.0);
}

TEST(Percentile, SingleSample)
{
    // A single sample is every percentile of itself.
    EXPECT_DOUBLE_EQ(percentiles({7.0}, {95.0})[0], 7.0);
    EXPECT_DOUBLE_EQ(percentiles({7.0}, {0.0})[0], 7.0);
    EXPECT_DOUBLE_EQ(percentiles({7.0}, {100.0})[0], 7.0);
}

TEST(Percentile, EmptyIsZero)
{
    // Empty sample sets are well-defined (0), matching OnlineStats
    // and SampleSummary.
    EXPECT_DOUBLE_EQ(percentiles({}, {50.0})[0], 0.0);
    EXPECT_DOUBLE_EQ(percentiles({}, {0.0})[0], 0.0);
    EXPECT_DOUBLE_EQ(percentiles({}, {100.0})[0], 0.0);
}

TEST(Percentile, ExtremesAreExactMinMax)
{
    // p0/p100 never interpolate, whatever the sample count.
    const std::vector<double> v = {4.0, 8.0, 15.0, 16.0, 23.0, 42.0};
    EXPECT_DOUBLE_EQ(percentiles(v, {0.0})[0], 4.0);
    EXPECT_DOUBLE_EQ(percentiles(v, {100.0})[0], 42.0);
}

TEST(PercentileDeath, OutOfRangePanics)
{
    EXPECT_DEATH(percentiles({1.0}, {101.0}), "out of range");
    EXPECT_DEATH(percentiles({}, {-1.0}), "out of range");
}

TEST(Percentiles, BitIdenticalToRepeatedSingleCalls)
{
    // Asking for several percentiles at once is bit-identical to
    // asking for each alone on an arbitrary sample set — including
    // interpolated ranks, duplicates, and unsorted query order.
    std::vector<double> samples;
    std::uint64_t x = 88172645463325252ULL; // xorshift64
    for (int i = 0; i < 257; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        samples.push_back(static_cast<double>(x % 10007) / 7.0);
    }
    samples[17] = samples[42]; // force duplicates
    samples[99] = samples[42];

    const std::vector<double> ps = {99.0, 50.0, 95.0, 0.0,
                                    100.0, 50.0, 12.5};
    const std::vector<double> got = percentiles(samples, ps);
    ASSERT_EQ(got.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(got[i], percentiles(samples, {ps[i]})[0])
            << "p" << ps[i];
}

TEST(Percentiles, EdgeCasesMatchSingleCallContract)
{
    // Empty set: every requested percentile is 0.
    const std::vector<double> empty = percentiles({}, {0.0, 50.0,
                                                       100.0});
    EXPECT_EQ(empty, (std::vector<double>{0.0, 0.0, 0.0}));
    // Single sample: every percentile is that sample.
    const std::vector<double> one =
        percentiles({7.0}, {0.0, 37.5, 100.0});
    EXPECT_EQ(one, (std::vector<double>{7.0, 7.0, 7.0}));
    // No percentiles requested: no results.
    EXPECT_TRUE(percentiles({1.0, 2.0}, {}).empty());
}

TEST(PercentilesDeath, OutOfRangePanics)
{
    EXPECT_DEATH(percentiles({1.0}, {50.0, 101.0}), "out of range");
    EXPECT_DEATH(percentiles({1.0}, {-0.5}), "out of range");
}

TEST(ZScoreFilter, RemovesClearOutlier)
{
    std::vector<double> v(100, 10.0);
    for (int i = 0; i < 100; ++i)
        v[i] += (i % 2 ? 0.1 : -0.1);
    v.push_back(1000.0);
    std::size_t removed = 0;
    const auto kept = zScoreFilter(v, 3.0, &removed);
    EXPECT_EQ(removed, 1u);
    EXPECT_EQ(kept.size(), 100u);
}

TEST(ZScoreFilter, KeepsAllWhenTight)
{
    const std::vector<double> v = {1.0, 2.0, 3.0, 2.0, 1.0};
    std::size_t removed = 9;
    const auto kept = zScoreFilter(v, 3.0, &removed);
    EXPECT_EQ(removed, 0u);
    EXPECT_EQ(kept, v);
}

TEST(ZScoreFilter, ConstantSamplesSurvive)
{
    const std::vector<double> v(10, 4.2);
    const auto kept = zScoreFilter(v, 3.0);
    EXPECT_EQ(kept.size(), 10u);
}

TEST(Summarize, CountsOutliersLikePaper)
{
    // ~0.64% of samples beyond Z>3 in the paper; build 1000 samples
    // with 6 injected spikes.
    std::vector<double> v;
    for (int i = 0; i < 994; ++i)
        v.push_back(50.0 + 0.5 * std::sin(i));
    for (int i = 0; i < 6; ++i)
        v.push_back(500.0);
    const SampleSummary s = summarize(v, 3.0);
    EXPECT_EQ(s.outliers, 6u);
    EXPECT_EQ(s.count, 994u);
    EXPECT_NEAR(s.mean, 50.0, 0.5);
}

TEST(Summarize, DisabledFilterKeepsEverything)
{
    std::vector<double> v = {1.0, 1.0, 1.0, 100.0};
    const SampleSummary s = summarize(v, 0.0);
    EXPECT_EQ(s.count, 4u);
    EXPECT_EQ(s.outliers, 0u);
}

TEST(Summarize, PercentilesOrdered)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(static_cast<double>(i));
    const SampleSummary s = summarize(v, 0.0);
    EXPECT_LE(s.p50, s.p95);
    EXPECT_LE(s.p95, s.p99);
    EXPECT_LE(s.p99, s.max);
    EXPECT_GE(s.p50, s.min);
}

namespace {

/** xorshift64: a tiny seeded generator for reproducible multisets. */
std::uint64_t
nextRand(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * A serving-shaped stream with heavy duplication: each "step" draws a
 * gap from a small pool and pushes it for a random number of
 * decoders, and some entries are spec cycles that spread the gap over
 * `emit` tokens (gap / emit, emit).
 */
RunLengthSamples
servingLikeSamples(std::uint64_t seed, int steps)
{
    RunLengthSamples rl;
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
    for (int i = 0; i < steps; ++i) {
        const double gap =
            0.01 + static_cast<double>(nextRand(x) % 37) / 613.0;
        const std::uint64_t emit = 1 + nextRand(x) % 5;
        if (nextRand(x) % 4 == 0)
            rl.push(gap / static_cast<double>(emit), emit);
        else
            rl.push(gap, 1 + nextRand(x) % 24);
    }
    return rl;
}

std::vector<double>
expand(const RunLengthSamples &rl)
{
    std::vector<double> out;
    for (const RunLengthSamples::Run &r : rl.runs())
        out.insert(out.end(), r.count, r.value);
    return out;
}

/** Order statistics bit for bit; moments within 1e-12 relative. */
void
expectSameSummary(const SampleSummary &got, const SampleSummary &want)
{
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.outliers, want.outliers);
    EXPECT_EQ(got.p50, want.p50);
    EXPECT_EQ(got.p95, want.p95);
    EXPECT_EQ(got.p99, want.p99);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    EXPECT_NEAR(got.mean, want.mean, 1e-12 * std::abs(want.mean));
    EXPECT_NEAR(got.stddev, want.stddev, 1e-12 * std::abs(want.stddev));
}

/** summarize() of one run-length multiset. */
SampleSummary
summarizeRuns(const RunLengthSamples &samples)
{
    const RunLengthSamples *const part = &samples;
    return summarize({&part, 1});
}

} // namespace

// Samples a few ulps apart. A per-sample Welford pass rounds its
// running mean to the same few doubles and misses the spread by up to
// ~70%; the stddev must match its closed form from integer ulp sums,
// and the Z filter, which divides by it, must keep samples that lie
// within two stddevs.
TEST(Summarize, StddevExactOnValuesUlpsApart)
{
    std::uint64_t x = 2026;
    const double base = 0.0123;
    const double ulp = std::nextafter(base, 1.0) - base;
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> v;
        std::uint64_t sum_k = 0, sum_k2 = 0;
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t k = nextRand(x) % 4;
            double y = base;
            for (std::uint64_t j = 0; j < k; ++j)
                y = std::nextafter(y, 1.0);
            v.push_back(y);
            sum_k += k;
            sum_k2 += k * k;
        }
        SCOPED_TRACE(trial);
        const double n = static_cast<double>(v.size());
        // n·Σk² − (Σk)² is exact in 64 bits at this size.
        const double m2n =
            static_cast<double>(v.size() * sum_k2 - sum_k * sum_k);
        const double stddev = ulp * std::sqrt(m2n / n / (n - 1.0));
        EXPECT_NEAR(summarize(v, 0.0).stddev, stddev, 1e-12 * stddev);
        std::size_t removed = 9;
        zScoreFilter(v, 3.0, &removed);
        EXPECT_EQ(removed, 0u);
    }
}

TEST(RunLengthSamples, PushExtendsOnlyTheLastRun)
{
    RunLengthSamples rl;
    EXPECT_TRUE(rl.empty());
    rl.push(1.0);
    rl.push(1.0, 2);
    rl.push(2.0);
    rl.push(2.0, 0);
    rl.push(1.0);
    ASSERT_EQ(rl.runs().size(), 3u);
    EXPECT_EQ(rl.size(), 5u);
    EXPECT_EQ(rl.runs()[0].value, 1.0);
    EXPECT_EQ(rl.runs()[0].count, 3u);
    EXPECT_EQ(rl.runs()[1].value, 2.0);
    EXPECT_EQ(rl.runs()[1].count, 1u);
    EXPECT_EQ(rl.runs()[2].value, 1.0);
    EXPECT_EQ(rl.runs()[2].count, 1u);
    EXPECT_EQ(expand(rl), (std::vector<double>{1, 1, 1, 2, 1}));
}

TEST(RunLengthSummary, BitIdenticalToExpandedSummary)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const RunLengthSamples rl =
            servingLikeSamples(seed, 50 + 97 * static_cast<int>(seed));
        SCOPED_TRACE(seed);
        ASSERT_GT(expand(rl).size(), 2 * rl.runs().size());
        expectSameSummary(summarizeRuns(rl), summarize(expand(rl), 0.0));
    }
}

TEST(RunLengthSummary, BitIdenticalOnSmallMultisets)
{
    // Few distinct values spread over many non-adjacent runs: ranks
    // often land on the last sample of one value's runs, so the
    // interpolation partner lies in a different value.
    std::uint64_t x = 2024;
    for (int trial = 0; trial < 3000; ++trial) {
        RunLengthSamples rl;
        const int runs = 1 + static_cast<int>(nextRand(x) % 40);
        const std::uint64_t values = 1 + nextRand(x) % 8;
        for (int i = 0; i < runs; ++i)
            rl.push(static_cast<double>(nextRand(x) % values) * 0.1,
                    1 + nextRand(x) % 4);
        SCOPED_TRACE(trial);
        expectSameSummary(summarizeRuns(rl), summarize(expand(rl), 0.0));
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(RunLengthSummary, EdgeCases)
{
    // Empty: the all-zero summary.
    const SampleSummary none = summarizeRuns(RunLengthSamples{});
    expectSameSummary(none, SampleSummary{});
    EXPECT_EQ(none.mean, 0.0);
    EXPECT_EQ(none.stddev, 0.0);

    const auto check = [](const RunLengthSamples &rl) {
        expectSameSummary(summarizeRuns(rl), summarize(expand(rl), 0.0));
    };
    RunLengthSamples one;
    one.push(0.125);
    check(one);
    EXPECT_EQ(summarizeRuns(one).p99, 0.125);

    RunLengthSamples two;
    two.push(3.0);
    two.push(1.0);
    check(two);
    EXPECT_EQ(summarizeRuns(two).p50, 2.0);

    RunLengthSamples same;
    same.push(0.7, 9);
    same.push(0.7, 4);
    ASSERT_EQ(same.runs().size(), 1u);
    check(same);
    EXPECT_EQ(summarizeRuns(same).stddev, 0.0);

    // n = 101: ranks 50, 95 and 99 are whole, so frac = 0 and each
    // percentile is one exact order statistic.
    RunLengthSamples whole_rank;
    for (int i = 100; i >= 0; i -= 4)
        whole_rank.push(static_cast<double>(i % 7), 1 + i % 3);
    while (whole_rank.size() < 101)
        whole_rank.push(2.5);
    ASSERT_EQ(whole_rank.size(), 101u);
    check(whole_rank);
}

namespace {

/** The expansion of several multisets, concatenated in order. */
std::vector<double>
expandAll(const std::vector<RunLengthSamples> &parts)
{
    std::vector<double> out;
    for (const RunLengthSamples &p : parts) {
        const std::vector<double> e = expand(p);
        out.insert(out.end(), e.begin(), e.end());
    }
    return out;
}

SampleSummary
summarizeParts(const std::vector<RunLengthSamples> &parts)
{
    std::vector<const RunLengthSamples *> ptrs;
    for (const RunLengthSamples &p : parts)
        ptrs.push_back(&p);
    return summarize(ptrs);
}

/** Count, p50/p95/p99, min and max, bit for bit. */
void
expectSameOrderStats(const SampleSummary &got, const SampleSummary &want)
{
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.p50, want.p50);
    EXPECT_EQ(got.p95, want.p95);
    EXPECT_EQ(got.p99, want.p99);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
}

/** A value drawn by one of a few shapes, chosen per multiset. */
double
drawValue(std::uint64_t &x, int shape)
{
    switch (shape) {
    case 0: // serving-like: a small pool of gaps, some split by emit
        return (0.01 + static_cast<double>(nextRand(x) % 37) / 613.0) /
               static_cast<double>(1 + nextRand(x) % 5);
    case 1: // nearly all distinct, both signs; the mean stays well
            // away from 0 (centred on 0, the oracle's own mean was
            // off by 6.7e-12 relative to quad precision)
        return (static_cast<double>(nextRand(x) % 2000001) - 4e5) / 3.0;
    case 2: // heavy ties around zero, including -0.0
        return nextRand(x) % 5 == 0
                   ? -0.0
                   : static_cast<double>(nextRand(x) % 7) - 3.0;
    default: // a long tail: exponents spread over many binades
        return std::ldexp(1.0 + static_cast<double>(nextRand(x) % 1024),
                          static_cast<int>(nextRand(x) % 60) - 40);
    }
}

} // namespace

TEST(RunLengthOracle, MultiSourceMatchesConcatenatedExpansion)
{
    // Random splits of random multisets into 1-6 parts, some empty:
    // the summary of the parts equals the summary of the expanded
    // concatenation.
    std::uint64_t x = 31337;
    for (int trial = 0; trial < 600; ++trial) {
        const int shape = trial % 4;
        std::vector<RunLengthSamples> parts(1 + nextRand(x) % 6);
        for (RunLengthSamples &p : parts) {
            if (nextRand(x) % 5 == 0)
                continue;
            const int runs = 1 + static_cast<int>(nextRand(x) % 300);
            for (int i = 0; i < runs; ++i)
                p.push(drawValue(x, shape), 1 + nextRand(x) % 30);
        }
        SCOPED_TRACE(trial);
        const std::vector<double> all = expandAll(parts);
        if (all.empty()) {
            expectSameSummary(summarizeParts(parts), SampleSummary{});
            continue;
        }
        expectSameSummary(summarizeParts(parts), summarize(all, 0.0));
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(RunLengthOracle, SingleValueHasExactMeanAndZeroStddev)
{
    for (double v : {0.1, -7.25, 1e300, 5e-324, -0.0}) {
        RunLengthSamples a, b;
        a.push(v, 3);
        b.push(v, 1ULL << 40);
        const SampleSummary s = summarizeParts({a, RunLengthSamples{}, b});
        EXPECT_EQ(s.mean, v);
        EXPECT_EQ(s.stddev, 0.0);
        EXPECT_EQ(s.p50, v);
        EXPECT_EQ(s.p99, v);
        EXPECT_EQ(s.count, 3 + (1ULL << 40));
    }
}

TEST(RunLengthOracle, AdversarialInputs)
{
    struct Case
    {
        const char *name;
        std::vector<RunLengthSamples> parts;
        // Moments are compared where a double can carry them to 12
        // digits: not when the spread overflows (the oracle's own
        // Welford deltas are infinite) or the deviations are
        // subnormal (a few bits of precision).
        bool moments = true;
    };
    std::vector<Case> cases;
    std::uint64_t x = 4242;

    {
        Case c{"negative, signed zeros and equal runs", {}};
        for (int k = 0; k < 3; ++k) {
            RunLengthSamples p;
            for (int i = 0; i < 200; ++i) {
                const std::uint64_t r = nextRand(x) % 6;
                p.push(r == 0   ? -0.0
                       : r == 1 ? 0.0
                       : r == 2 ? -2.5
                                : -static_cast<double>(r) * 1e-3,
                       1 + nextRand(x) % 9);
            }
            c.parts.push_back(p);
        }
        cases.push_back(c);
    }
    {
        // The minimum compares equal to a sample of the other sign:
        // both zeros must land in the lowest bucket.
        Case c{"signed zeros as the minimum", {}};
        RunLengthSamples p;
        p.push(0.0, 3);
        p.push(-0.0, 5);
        p.push(1.0, 2);
        p.push(-0.0);
        p.push(0.5, 4);
        c.parts.push_back(p);
        cases.push_back(c);
    }
    {
        Case c{"all samples equal across parts", {}};
        for (int k = 0; k < 4; ++k) {
            RunLengthSamples p;
            p.push(0.3, 1 + nextRand(x) % 1000);
            p.push(0.3, 7);
            c.parts.push_back(p);
        }
        cases.push_back(c);
    }
    {
        // Most of the weight inside a few thousand ulps, between a far
        // smaller minimum and a far larger maximum: one histogram
        // bucket holds nearly everything.
        Case c{"one dense bucket", {}};
        RunLengthSamples p;
        p.push(0.5);
        for (int i = 0; i < 3000; ++i) {
            double v = 1.0;
            for (std::uint64_t k = nextRand(x) % 3000; k > 0; --k)
                v = std::nextafter(v, 2.0);
            p.push(v, 1 + nextRand(x) % 50);
        }
        p.push(2.0);
        c.parts.push_back(p);
        cases.push_back(c);
    }
    {
        Case c{"max far above p99", {}};
        RunLengthSamples p;
        for (int i = 0; i < 2000; ++i)
            p.push(0.01 + static_cast<double>(nextRand(x) % 997) * 1e-5,
                   1 + nextRand(x) % 5);
        p.push(1e300);
        c.parts.push_back(p);
        cases.push_back(c);
    }
    {
        Case c{"max - min overflows", {}, false};
        RunLengthSamples p;
        p.push(-1.5e308, 3);
        for (int i = 0; i < 300; ++i)
            p.push(drawValue(x, 1), 1 + nextRand(x) % 4);
        p.push(1.7e308, 2);
        p.push(-std::numeric_limits<double>::max());
        p.push(std::numeric_limits<double>::max(), 5);
        c.parts.push_back(p);
        cases.push_back(c);
    }
    {
        // Normal values whose differences are subnormal: DBL_MIN and
        // the next few doubles above it.
        Case c{"subnormal spread of normal values", {}, false};
        RunLengthSamples p;
        for (int i = 0; i < 400; ++i) {
            double v = std::numeric_limits<double>::min();
            for (std::uint64_t k = nextRand(x) % 5; k > 0; --k)
                v = std::nextafter(v, 1.0);
            p.push(v, 1 + nextRand(x) % 6);
        }
        c.parts.push_back(p);
        cases.push_back(c);
    }
    {
        Case c{"subnormal values of both signs", {}, false};
        RunLengthSamples p;
        const double tiny = std::numeric_limits<double>::denorm_min();
        for (int i = 0; i < 400; ++i)
            p.push(tiny * (static_cast<double>(nextRand(x) % 9) - 4.0),
                   1 + nextRand(x) % 6);
        c.parts.push_back(p);
        cases.push_back(c);
    }

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const SampleSummary got = summarizeParts(c.parts);
        const SampleSummary want = summarize(expandAll(c.parts), 0.0);
        if (c.moments)
            expectSameSummary(got, want);
        else
            expectSameOrderStats(got, want);
    }
}

TEST(RunLengthOracle, ValuesOneUlpApart)
{
    // base + k ulps, k in 0..3. Order statistics match the oracle;
    // the moments are checked against their closed form from integer
    // sums (Summarize.StddevExactOnValuesUlpsApart holds the oracle's
    // own stddev to the same form).
    std::uint64_t x = 4242;
    const double base = 0.0123;
    const double ulp = std::nextafter(base, 1.0) - base;
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<RunLengthSamples> parts(1 + trial % 3);
        std::uint64_t n = 0, sum_k = 0, sum_k2 = 0;
        for (int i = 0; i < 500; ++i) {
            const std::uint64_t k = nextRand(x) % 4;
            const std::uint64_t w = 1 + nextRand(x) % 40;
            double v = base;
            for (std::uint64_t j = 0; j < k; ++j)
                v = std::nextafter(v, 1.0);
            parts[static_cast<std::size_t>(i) % parts.size()].push(v, w);
            n += w;
            sum_k += w * k;
            sum_k2 += w * k * k;
        }
        SCOPED_TRACE(trial);
        const SampleSummary got = summarizeParts(parts);
        expectSameOrderStats(got, summarize(expandAll(parts), 0.0));
        const double nd = static_cast<double>(n);
        const double mean = base + ulp * static_cast<double>(sum_k) / nd;
        // n·Σk² − (Σk)² is exact in 64 bits at these sizes.
        const double m2n = static_cast<double>(n * sum_k2 - sum_k * sum_k);
        const double stddev = ulp * std::sqrt(m2n / nd / (nd - 1.0));
        EXPECT_NEAR(got.mean, mean, 1e-12 * mean);
        EXPECT_NEAR(got.stddev, stddev, 1e-12 * stddev);
    }
}

TEST(RunLengthSummaryDeath, NonFiniteSamplePanics)
{
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
        RunLengthSamples ok, poisoned;
        ok.push(0.25, 4);
        poisoned.push(0.5);
        poisoned.push(bad, 2);
        poisoned.push(0.75);
        EXPECT_DEATH(summarizeParts({ok, poisoned}), "non-finite");
        EXPECT_DEATH(summarizeRuns(poisoned), "non-finite");
    }
}

TEST(Overhead, BasicMath)
{
    EXPECT_NEAR(overhead(110.0, 100.0), 0.1, 1e-12);
    EXPECT_NEAR(overheadPct(110.0, 100.0), 10.0, 1e-10);
    EXPECT_NEAR(overheadPct(90.0, 100.0), -10.0, 1e-10);
}

TEST(OverheadDeath, ZeroBaselinePanics)
{
    EXPECT_DEATH(overhead(1.0, 0.0), "zero baseline");
}
