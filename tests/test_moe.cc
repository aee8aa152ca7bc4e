/**
 * @file
 * Tests for mixture-of-experts support: parameter accounting, routed
 * weight traffic, and TEE overhead behaviour for Mixtral-8x7B-class
 * models (the MoE direction the paper's intro flags in newer Llama
 * generations).
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "llm/model_config.hh"
#include "llm/ops.hh"

using namespace cllm;
using namespace cllm::llm;

TEST(Moe, MixtralTotalParamsMatchPublished)
{
    // Published: 46.7B total parameters.
    EXPECT_NEAR(mixtral_8x7b().numParams() / 1e9, 46.7, 0.5);
}

TEST(Moe, MixtralActiveParamsMatchPublished)
{
    // Published: ~12.9B active per token (we count ~12.7B without
    // input embeddings, which decode does not stream).
    EXPECT_NEAR(mixtral_8x7b().matmulParams() / 1e9, 12.8, 0.5);
}

TEST(Moe, DenseModelsUnaffected)
{
    const ModelConfig dense = llama2_7b();
    EXPECT_FALSE(dense.isMoe());
    EXPECT_EQ(dense.expertsTouched(64.0), 1.0);
    EXPECT_EQ(dense.mlpParamsPerLayer(), dense.expertParams());
}

TEST(Moe, ExpertsTouchedCouponCollector)
{
    const ModelConfig m = mixtral_8x7b();
    // One sequence: exactly k experts in expectation.
    EXPECT_NEAR(m.expertsTouched(1.0), 2.0, 0.01);
    // Many sequences: all experts.
    EXPECT_NEAR(m.expertsTouched(1000.0), 8.0, 0.01);
    // Monotone in between.
    EXPECT_LT(m.expertsTouched(2.0), m.expertsTouched(8.0));
    EXPECT_LT(m.expertsTouched(8.0), m.expertsTouched(64.0));
}

TEST(Moe, BlockHasRouterOp)
{
    const auto ops = blockDecodeOps(mixtral_8x7b(), hw::Dtype::Bf16,
                                    128, 4.0);
    bool has_router = false;
    for (const auto &op : ops)
        has_router |= op.kind == OpKind::Router;
    EXPECT_TRUE(has_router);
}

TEST(Moe, WeightTrafficGrowsWithBatchButCaps)
{
    const ModelConfig m = mixtral_8x7b();
    const double w1 =
        StepTotalsTable(m, hw::Dtype::Bf16).at(128, 1.0).weightBytes;
    const double w8 =
        StepTotalsTable(m, hw::Dtype::Bf16).at(128, 8.0).weightBytes;
    const double w256 =
        StepTotalsTable(m, hw::Dtype::Bf16).at(128, 256.0).weightBytes;
    const double w4096 =
        StepTotalsTable(m, hw::Dtype::Bf16).at(128, 4096.0).weightBytes;
    EXPECT_LT(w1, w8);
    EXPECT_LT(w8, w256);
    // Saturates once every expert is touched.
    EXPECT_NEAR(w256 / w4096, 1.0, 0.01);
    // At saturation, traffic ~ total weights; at batch 1, much less.
    EXPECT_LT(w1 / w4096, 0.45);
}

TEST(Moe, FlopsScaleWithActiveExpertsOnly)
{
    const ModelConfig moe = mixtral_8x7b();
    const double flops =
        StepTotalsTable(moe, hw::Dtype::Bf16).at(1, 1.0).flopsPerSeq;
    // ~2 FLOPs per active matmul parameter.
    EXPECT_NEAR(flops / (2.0 * moe.matmulParams()), 1.0, 0.05);
}

TEST(Moe, SingleSequenceDecodeFasterThanDense47B)
{
    // The MoE selling point: decode streams only the routed experts,
    // so batch-1 latency resembles a ~13B dense model, not a 47B one.
    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.batch = 1;
    p.inLen = 128;
    p.outLen = 32;
    p.sockets = 2;
    p.cores = cpu.totalCores();

    const auto moe =
        exp.runCpu(cpu, core::Backend::Bare, mixtral_8x7b(), p);
    const auto d13 =
        exp.runCpu(cpu, core::Backend::Bare, llama2_13b(), p);
    const auto d70 =
        exp.runCpu(cpu, core::Backend::Bare, llama2_70b(), p);
    EXPECT_LT(moe.timing.meanTokenLatency,
              2.0 * d13.timing.meanTokenLatency);
    EXPECT_LT(moe.timing.meanTokenLatency,
              d70.timing.meanTokenLatency);
}

TEST(Moe, TdxOverheadInFamiliarBand)
{
    // MoE runs through the same mechanisms, so TEE overheads should
    // land in the same band as the dense 7B-class models.
    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr2();
    llm::RunParams p;
    p.batch = 4;
    p.inLen = 512;
    p.outLen = 64;
    p.sockets = 2;
    p.cores = cpu.totalCores();
    const auto bare =
        exp.runCpu(cpu, core::Backend::Bare, mixtral_8x7b(), p);
    const auto tdx =
        exp.runCpu(cpu, core::Backend::Tdx, mixtral_8x7b(), p);
    const double ov =
        core::Experiment::compare(tdx, bare).tputOverheadPct;
    EXPECT_GT(ov, 3.0);
    EXPECT_LT(ov, 25.0);
}

TEST(Moe, BatchRaisesMoeMemoryPressureFasterThanDense)
{
    // Unlike dense models (weights read once per step regardless of
    // batch), MoE weight traffic grows with batch until all experts
    // are hot — so MoE throughput saturates earlier in batch.
    const ModelConfig moe = mixtral_8x7b();
    const ModelConfig dense = llama2_7b();
    const double moe_growth =
        StepTotalsTable(moe, hw::Dtype::Bf16).at(128, 16.0).weightBytes /
        StepTotalsTable(moe, hw::Dtype::Bf16).at(128, 1.0).weightBytes;
    const double dense_growth =
        StepTotalsTable(dense, hw::Dtype::Bf16).at(128, 16.0).weightBytes /
        StepTotalsTable(dense, hw::Dtype::Bf16).at(128, 1.0).weightBytes;
    EXPECT_NEAR(dense_growth, 1.0, 1e-9);
    EXPECT_GT(moe_growth, 1.5);
}
