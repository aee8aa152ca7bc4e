/**
 * @file
 * Tests for the cloud pricing model (Figures 12-13 arithmetic).
 */

#include <gtest/gtest.h>

#include "cost/pricing.hh"

using namespace cllm::cost;

TEST(Pricing, InstanceHourMath)
{
    CpuPricing p{"test", 0.01, 0.001};
    EXPECT_NEAR(cpuInstanceHr(p, 32, 128.0), 0.32 + 0.128, 1e-12);
}

TEST(Pricing, MemoryDominatesSmallInstances)
{
    // The paper's observation: memory cost is fixed; at low vCPU
    // counts it dominates the bill.
    const CpuPricing p = gcpSpotUsEast1();
    const double hr8 = cpuInstanceHr(p, 8, 128.0);
    const double mem_part = p.memGbHr * 128.0;
    EXPECT_GT(mem_part / hr8, 0.5);
}

TEST(Pricing, CostPerMTokensInverseInThroughput)
{
    const double slow = costPerMTokens(10.0, 1.0);
    const double fast = costPerMTokens(100.0, 1.0);
    EXPECT_NEAR(slow / fast, 10.0, 1e-9);
}

TEST(Pricing, CostPerMTokensKnownValue)
{
    // 1M tokens at 100 tok/s = 10,000 s = 2.7778 hours at $3.60/hr.
    EXPECT_NEAR(costPerMTokens(100.0, 3.6), 10.0, 1e-9);
}

TEST(Pricing, SprCheaperPerVcpu)
{
    EXPECT_LT(gcpSpotSprUsEast1().vcpuHr, gcpSpotUsEast1().vcpuHr);
}

TEST(Pricing, PerSecondIsHourlyOver3600)
{
    EXPECT_DOUBLE_EQ(perSecondUsd(3600.0), 1.0);
    EXPECT_DOUBLE_EQ(perSecondUsd(cgpuH100().instanceHr),
                     10.50 / 3600.0);
    EXPECT_DOUBLE_EQ(perSecondUsd(0.0), 0.0);
}

TEST(Pricing, NodeSecondsMeterIsLinear)
{
    // One cGPU-H100 hour billed second-by-second equals one
    // instance-hour, and half the duration costs exactly half.
    const double hr = cgpuH100().instanceHr;
    EXPECT_DOUBLE_EQ(nodeSecondsUsd(hr, 3600.0), hr);
    EXPECT_DOUBLE_EQ(nodeSecondsUsd(hr, 1800.0), hr / 2.0);
    EXPECT_DOUBLE_EQ(nodeSecondsUsd(hr, 0.0), 0.0);
}

TEST(Pricing, CostPer1kTokensKnownValue)
{
    // $2 for 500k tokens -> $4 per million -> $0.004 per 1k.
    EXPECT_DOUBLE_EQ(costPer1kTokens(500000, 2.0), 0.004);
    EXPECT_DOUBLE_EQ(costPer1kTokens(1000, 0.0), 0.0);
}

TEST(Pricing, ConfidentialH100MatchesAzureList)
{
    // NCCads_H100_v5, the confidential H100 the paper's Fig. 13
    // prices.
    EXPECT_DOUBLE_EQ(cgpuH100().instanceHr, 10.50);
}

TEST(Pricing, SpotRatesMatchPaperSectionVD)
{
    // Figs. 12-13 price EMR at $0.0088/vCPU-hr and the cheaper SPR
    // machine type at $0.0047/vCPU-hr; memory is priced identically.
    EXPECT_DOUBLE_EQ(gcpSpotUsEast1().vcpuHr, 0.0088);
    EXPECT_DOUBLE_EQ(gcpSpotUsEast1().memGbHr, 0.00118);
    EXPECT_DOUBLE_EQ(gcpSpotSprUsEast1().vcpuHr, 0.0047);
    EXPECT_DOUBLE_EQ(gcpSpotSprUsEast1().memGbHr, 0.00118);
}

TEST(Pricing, FleetNodeHourlyRateComposes)
{
    // The fleet CPU preset's hourly rate is the separable sum, so a
    // node-second of it meters back to exactly that sum.
    const CpuPricing p = gcpSpotUsEast1();
    const double hr = cpuInstanceHr(p, 64, 128.0);
    EXPECT_DOUBLE_EQ(hr, 0.0088 * 64 + 0.00118 * 128.0);
    EXPECT_DOUBLE_EQ(nodeSecondsUsd(hr, 3600.0), hr);
}

TEST(PricingDeath, DegenerateInputsFatal)
{
    CpuPricing p = gcpSpotUsEast1();
    EXPECT_DEATH(cpuInstanceHr(p, 0, 128.0), "empty");
    EXPECT_DEATH(costPerMTokens(0.0, 1.0), "throughput");
    EXPECT_DEATH(perSecondUsd(-1.0), "negative");
    EXPECT_DEATH(nodeSecondsUsd(1.0, -1.0), "negative");
    EXPECT_DEATH(costPer1kTokens(0, 1.0), "tokens");
}
