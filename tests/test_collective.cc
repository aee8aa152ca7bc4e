/**
 * @file
 * Tests for the functional ring collectives (tests/collective_ref.hh),
 * including the check that the traffic factor the cluster timing model
 * prices matches what the real algorithm moves.
 */

#include <gtest/gtest.h>

#include <vector>

#include "collective_ref.hh"
#include "llm/perf_cluster.hh"
#include "util/rng.hh"

using namespace cllm;
using namespace cllm::llm;
using cllm::testing::ringAllGather;
using cllm::testing::ringAllReduce;

namespace {

std::vector<std::vector<float>>
randomRanks(unsigned n, std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<float>> out(n);
    for (auto &r : out) {
        r.resize(len);
        for (auto &x : r)
            x = static_cast<float>(rng.gaussian(0.0, 1.0));
    }
    return out;
}

std::vector<float>
referenceSum(const std::vector<std::vector<float>> &ranks)
{
    std::vector<float> sum(ranks[0].size(), 0.0f);
    for (const auto &r : ranks)
        for (std::size_t i = 0; i < r.size(); ++i)
            sum[i] += r[i];
    return sum;
}

} // namespace

TEST(AllReduce, SumsCorrectlyAcrossRankCounts)
{
    for (unsigned n : {2u, 3u, 4u, 8u}) {
        auto ranks = randomRanks(n, 64, n);
        const auto expect = referenceSum(ranks);
        ringAllReduce(ranks);
        for (unsigned r = 0; r < n; ++r) {
            for (std::size_t i = 0; i < expect.size(); ++i) {
                EXPECT_NEAR(ranks[r][i], expect[i], 1e-4)
                    << "n=" << n << " rank=" << r << " i=" << i;
            }
        }
    }
}

TEST(AllReduce, HandlesNonDivisibleLengths)
{
    auto ranks = randomRanks(4, 13, 99); // 13 % 4 != 0
    const auto expect = referenceSum(ranks);
    ringAllReduce(ranks);
    for (const auto &r : ranks)
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_NEAR(r[i], expect[i], 1e-4);
}

TEST(AllReduce, SingleRankIsNoop)
{
    auto ranks = randomRanks(1, 16, 5);
    const auto orig = ranks[0];
    const auto stats = ringAllReduce(ranks);
    EXPECT_EQ(ranks[0], orig);
    EXPECT_EQ(stats.bytesSentPerRank, 0u);
    EXPECT_EQ(stats.steps, 0u);
}

TEST(AllReduce, EmptyBuffersAreNoop)
{
    std::vector<std::vector<float>> ranks(3);
    const auto stats = ringAllReduce(ranks);
    EXPECT_EQ(stats.bytesSentPerRank, 0u);
}

TEST(AllReduce, TrafficMatchesRingFactor)
{
    // The cluster timing model prices ringAllReduceFactor(n) of the
    // payload per rank; the functional algorithm must move exactly
    // that (within chunk-rounding).
    for (unsigned n : {2u, 4u, 8u}) {
        auto ranks = randomRanks(n, 1024, n + 1);
        const auto stats = ringAllReduce(ranks);
        const double payload = 1024.0 * sizeof(float);
        const double expect = ringAllReduceFactor(n) * payload;
        EXPECT_NEAR(stats.bytesSentPerRank / expect, 1.0, 0.02)
            << "n=" << n;
        EXPECT_EQ(stats.steps, 2 * (n - 1));
    }
}

TEST(AllReduce, FactorFormula)
{
    EXPECT_DOUBLE_EQ(ringAllReduceFactor(1), 0.0);
    EXPECT_DOUBLE_EQ(ringAllReduceFactor(2), 1.0);
    EXPECT_DOUBLE_EQ(ringAllReduceFactor(4), 1.5);
}

TEST(AllReduceDeath, RaggedBuffersFatal)
{
    std::vector<std::vector<float>> ranks(2);
    ranks[0].resize(4);
    ranks[1].resize(5);
    EXPECT_DEATH(ringAllReduce(ranks), "ragged");
}

TEST(AllGather, ConcatenatesInRankOrder)
{
    std::vector<std::vector<float>> ranks = {
        {1.0f, 2.0f}, {3.0f}, {4.0f, 5.0f}};
    const auto stats = ringAllGather(ranks);
    const std::vector<float> expect = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
    for (const auto &r : ranks)
        EXPECT_EQ(r, expect);
    EXPECT_EQ(stats.steps, 2u);
    EXPECT_GT(stats.bytesSentPerRank, 0u);
}

TEST(AllGather, SingleRankIsNoop)
{
    std::vector<std::vector<float>> ranks = {{1.0f, 2.0f}};
    const auto stats = ringAllGather(ranks);
    EXPECT_EQ(ranks[0].size(), 2u);
    EXPECT_EQ(stats.steps, 0u);
}
