/**
 * @file
 * Tests for the multi-GPU scale-out model (Section V-D4): capacity,
 * confidential communication collapse, and IPsec taxes.
 */

#include <gtest/gtest.h>

#include "llm/perf_cluster.hh"

using namespace cllm;
using namespace cllm::llm;

namespace {

ClusterRunParams
params(unsigned gpus, bool confidential, unsigned batch = 4)
{
    ClusterRunParams p;
    p.gpus = gpus;
    p.confidential = confidential;
    p.batch = batch;
    p.inLen = 128;
    p.outLen = 64;
    return p;
}

} // namespace

TEST(Cluster, SeventyBFitsOnFourGpus)
{
    GpuClusterPerfModel m;
    EXPECT_FALSE(m.fits(hw::h100Nvl(), llama2_70b(), params(1, false)));
    EXPECT_TRUE(m.fits(hw::h100Nvl(), llama2_70b(), params(4, false)));
}

TEST(Cluster, ThirteenBFitsEverywhere)
{
    GpuClusterPerfModel m;
    EXPECT_TRUE(m.fits(hw::h100Nvl(), llama2_13b(), params(1, false)));
    EXPECT_TRUE(m.fits(hw::h100Nvl(), llama2_13b(), params(2, true)));
}

TEST(Cluster, RawScaleOutSpeedsUpDecode)
{
    GpuClusterPerfModel m;
    const auto one =
        m.run(hw::h100Nvl(), llama2_13b(), params(1, false));
    const auto two =
        m.run(hw::h100Nvl(), llama2_13b(), params(2, false));
    const double speedup = two.decodeTput / one.decodeTput;
    EXPECT_GT(speedup, 1.3); // decent TP scaling over RDMA
    EXPECT_LT(speedup, 2.0);
}

TEST(Cluster, ConfidentialScaleOutCollapses)
{
    // Insight 11 / Section V-D4: without RDMA and GPUdirect, all
    // inter-GPU traffic crosses the host at ~3 GB/s; adding a second
    // confidential GPU is not worth it for decode.
    GpuClusterPerfModel m;
    const auto one = m.run(hw::h100Nvl(), llama2_13b(), params(1, true));
    const auto two = m.run(hw::h100Nvl(), llama2_13b(), params(2, true));
    const double speedup = two.decodeTput / one.decodeTput;
    EXPECT_LT(speedup, 1.1);
}

TEST(Cluster, ConfidentialLinkIsThirteenTimesSlower)
{
    GpuClusterPerfModel m;
    EXPECT_NEAR(m.linkBandwidth(params(2, false)) /
                    m.linkBandwidth(params(2, true)),
                40.0 / 3.0, 0.1);
}

TEST(Cluster, IpsecTaxesTheLink)
{
    GpuClusterPerfModel m;
    auto p = params(2, false);
    const auto plain = m.run(hw::h100Nvl(), llama2_13b(), p);
    p.ipsec = true;
    const auto ipsec = m.run(hw::h100Nvl(), llama2_13b(), p);
    EXPECT_LT(m.linkBandwidth(p), m.linkBandwidth(params(2, false)));
    EXPECT_LT(ipsec.decodeTput, plain.decodeTput);
}

TEST(Cluster, SingleGpuMatchesNoCommOverhead)
{
    // TP=1 must not pay any collective costs: the cluster model and
    // the plain GPU model share one decode loop and agree bit for bit.
    GpuClusterPerfModel cluster;
    GpuPerfModel plain;
    const auto c = cluster.run(hw::h100Nvl(), llama2_7b(),
                               params(1, false, 8));
    GpuRunParams g;
    g.batch = 8;
    g.inLen = 128;
    g.outLen = 64;
    const auto p = plain.run(hw::h100Nvl(), llama2_7b(), g);
    EXPECT_EQ(c.tokenLatencies, p.tokenLatencies);
}

TEST(Cluster, SeventyBConfidentialDecodeBelowReadingSpeed)
{
    // The headline scale-up comparison: 70B across 4 confidential
    // GPUs is throttled by host-routed collectives.
    GpuClusterPerfModel m;
    const auto raw = m.run(hw::h100Nvl(), llama2_70b(),
                           params(4, false, 1));
    const auto cc = m.run(hw::h100Nvl(), llama2_70b(),
                          params(4, true, 1));
    EXPECT_GT(cc.meanTokenLatency, 1.5 * raw.meanTokenLatency);
}

TEST(ClusterDeath, DoesNotFitFatal)
{
    GpuClusterPerfModel m;
    EXPECT_DEATH(m.run(hw::h100Nvl(), llama2_70b(), params(1, false)),
                 "does not fit");
}

TEST(ClusterDeath, ZeroGpusFatal)
{
    GpuClusterPerfModel m;
    EXPECT_DEATH(m.run(hw::h100Nvl(), llama2_7b(), params(0, false)),
                 "degenerate");
}
