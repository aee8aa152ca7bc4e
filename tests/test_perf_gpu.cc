/**
 * @file
 * Tests for the GPU timing model's mechanics: capacity limits, the
 * confidential prefill's bounce buffer, determinism and parameter
 * validation. The paper's Section V bands are rows of the calibration
 * table (bench/calibration.hh), checked by test_calibration.
 */

#include <gtest/gtest.h>

#include "hw/gpu.hh"
#include "llm/model_config.hh"
#include "llm/perf_gpu.hh"

using namespace cllm;
using namespace cllm::llm;

TEST(PerfGpu, SeventyBDoesNotFit)
{
    // Section V-D4: a single H100 NVL fits ~30B; 70B must be refused.
    GpuPerfModel m;
    GpuRunParams p;
    EXPECT_DEATH(m.run(hw::h100Nvl(), llama2_70b(), p),
                 "exceed GPU memory");
}

TEST(PerfGpu, ThirtyBClassFits)
{
    ModelConfig m30 = llama2_13b();
    m30.name = "30B-class";
    m30.layers = 60;
    m30.hidden = 6656;
    m30.heads = 52;
    m30.kvHeads = 52;
    m30.ffn = 17920;
    GpuPerfModel m;
    GpuRunParams p;
    p.batch = 1;
    p.inLen = 128;
    p.outLen = 16;
    const auto r = m.run(hw::h100Nvl(), m30, p);
    EXPECT_GT(r.decodeTput, 0.0);
}

TEST(PerfGpu, KvCacheLimitsBatchAtLongInput)
{
    GpuPerfModel m;
    GpuRunParams p;
    p.batch = 256;
    p.inLen = 4096;
    p.outLen = 128;
    EXPECT_DEATH(m.run(hw::h100Nvl(), llama2_7b(), p), "exceed");
}

TEST(PerfGpu, ConfidentialPrefillPaysBounceBuffer)
{
    GpuPerfModel m;
    GpuRunParams p;
    p.batch = 8;
    p.inLen = 8000;
    p.outLen = 16;
    const auto raw = m.run(hw::h100Nvl(), llama2_7b(), p);
    p.confidential = true;
    const auto cc = m.run(hw::h100Nvl(), llama2_7b(), p);
    EXPECT_GT(cc.prefillSeconds, raw.prefillSeconds);
}

TEST(PerfGpu, DecodeIsMemoryBoundAtSmallBatch)
{
    GpuPerfModel m;
    GpuRunParams p;
    p.batch = 1;
    p.inLen = 128;
    p.outLen = 16;
    EXPECT_TRUE(m.run(hw::h100Nvl(), llama2_7b(), p).memoryBound);
}

TEST(PerfGpu, SeedReproducible)
{
    GpuPerfModel m;
    GpuRunParams p;
    p.batch = 2;
    p.inLen = 64;
    p.outLen = 32;
    const auto a = m.run(hw::h100Nvl(), llama2_7b(), p);
    const auto b = m.run(hw::h100Nvl(), llama2_7b(), p);
    EXPECT_EQ(a.tokenLatencies, b.tokenLatencies);
}

TEST(PerfGpuDeath, ZeroBatchFatal)
{
    GpuPerfModel m;
    GpuRunParams p;
    p.batch = 0;
    EXPECT_DEATH(m.run(hw::h100Nvl(), llama2_7b(), p), "positive");
}
