/**
 * @file
 * Tests for the operator FLOP/byte profiles feeding the timing model
 * and Figure 7.
 */

#include <gtest/gtest.h>

#include <vector>

#include "llm/model_config.hh"
#include "llm/ops.hh"
#include "step_totals_ref.hh"

using namespace cllm;
using namespace cllm::llm;

TEST(Ops, BlockHasExpectedOperators)
{
    const auto ops = blockDecodeOps(llama2_7b(), hw::Dtype::Bf16, 512);
    ASSERT_EQ(ops.size(), 9u);
    EXPECT_EQ(ops.front().kind, OpKind::InputNorm);
    EXPECT_EQ(ops.back().kind, OpKind::DownProj);
}

TEST(Ops, StepTotalsAggregateBlocksAndTop)
{
    const ModelConfig m = llama2_7b();
    const double pos = 777;
    const auto block = blockDecodeOps(m, hw::Dtype::Bf16, pos);
    const auto top = topLevelDecodeOps(m, hw::Dtype::Bf16);
    const StepTotals t = StepTotalsTable(m, hw::Dtype::Bf16).at(pos);

    double flops = 0.0, weights = 0.0, act = 0.0, kv = 0.0;
    for (const auto &op : block) {
        flops += op.flopsPerSeq * m.layers;
        weights += op.weightBytes * m.layers;
        act += op.actBytesPerSeq * m.layers;
        kv += op.kvBytesPerSeq * m.layers;
    }
    for (const auto &op : top) {
        flops += op.flopsPerSeq;
        weights += op.weightBytes;
        act += op.actBytesPerSeq;
        kv += op.kvBytesPerSeq;
    }
    EXPECT_EQ(t.flopsPerSeq, flops);
    EXPECT_EQ(t.weightBytes, weights);
    EXPECT_EQ(t.actBytesPerSeq, act);
    EXPECT_EQ(t.kvBytesPerSeq, kv);
    EXPECT_EQ(t.opCount, 9 * m.layers + 3);
}

// The table adds its stored addends around the recomputed attention
// and expert terms in op order, so every field equals the per-op sum
// bit for bit: on every preset, dtype, depth and batch below.
// Integer-valued addends sum exactly in any order, so only the
// non-dyadic depths (like the mean depths a serving step prices) can
// tell a folded or reordered sum from the op-order one.
TEST(Ops, StepTotalsTableMatchesPerOpSumBitwise)
{
    using cllm::testing::bits;
    std::vector<double> depths = {0.0,    0.5,    1.0,     127.5,
                                  777.25, 4095.5, 131072.0};
    for (int i = 0; i < 256; ++i)
        depths.push_back(0.013 + 0.37 * i);
    for (const auto &preset : kModelPresets.entries) {
        const ModelConfig m = preset.value();
        for (const auto &dtype : hw::kDtypeNames.entries) {
            const hw::Dtype dt = dtype.value;
            const StepTotalsTable table(m, dt);
            for (double pos : depths)
                for (double nseq : {1.0, 1.5, 8.0, 256.0, 4096.0}) {
                    const StepTotals ref =
                        cllm::testing::perOpSum(m, dt, pos, nseq);
                    const StepTotals got = table.at(pos, nseq);
                    SCOPED_TRACE(::testing::Message()
                                 << m.name << " " << dtype.name
                                 << " pos " << pos << " nseq " << nseq);
                    EXPECT_EQ(bits(got.flopsPerSeq),
                              bits(ref.flopsPerSeq));
                    EXPECT_EQ(bits(got.weightBytes),
                              bits(ref.weightBytes));
                    EXPECT_EQ(bits(got.actBytesPerSeq),
                              bits(ref.actBytesPerSeq));
                    EXPECT_EQ(bits(got.kvBytesPerSeq),
                              bits(ref.kvBytesPerSeq));
                    EXPECT_EQ(got.opCount, ref.opCount);
                    EXPECT_EQ(table.actBytesPerSeq(),
                              ref.actBytesPerSeq);
                    EXPECT_EQ(table.opCount(), ref.opCount);
                }
        }
    }
}

TEST(Ops, StepFlopsApproxTwiceMatmulParams)
{
    // At small context, decode FLOPs/token ~= 2 x matmul params.
    const ModelConfig m = llama2_7b();
    const StepTotals t = StepTotalsTable(m, hw::Dtype::Bf16).at(1);
    const double expect = 2.0 * static_cast<double>(m.matmulParams());
    EXPECT_NEAR(t.flopsPerSeq / expect, 1.0, 0.02);
}

TEST(Ops, WeightBytesApproxModelSize)
{
    const ModelConfig m = llama2_7b();
    const StepTotals t = StepTotalsTable(m, hw::Dtype::Bf16).at(1);
    // Per-step weight traffic ~ all matmul weights in bf16 (embedding
    // rows are fetched per token, not streamed).
    const double expect =
        2.0 * static_cast<double>(m.matmulParams());
    EXPECT_NEAR(t.weightBytes / expect, 1.0, 0.05);
}

TEST(Ops, AttentionScalesWithPosition)
{
    const ModelConfig m = llama2_7b();
    const auto near = blockDecodeOps(m, hw::Dtype::Bf16, 128);
    const auto far = blockDecodeOps(m, hw::Dtype::Bf16, 4096);
    double f_near = 0, f_far = 0, kv_near = 0, kv_far = 0;
    for (const auto &op : near) {
        if (op.kind == OpKind::Attention) {
            f_near = op.flopsPerSeq;
            kv_near = op.kvBytesPerSeq;
        }
    }
    for (const auto &op : far) {
        if (op.kind == OpKind::Attention) {
            f_far = op.flopsPerSeq;
            kv_far = op.kvBytesPerSeq;
        }
    }
    EXPECT_NEAR(f_far / f_near, 4096.0 / 128.0, 0.01);
    EXPECT_GT(kv_far, kv_near);
}

TEST(Ops, OnlyAttentionTouchesKv)
{
    for (const auto &op :
         blockDecodeOps(llama2_7b(), hw::Dtype::Bf16, 100)) {
        if (op.kind != OpKind::Attention) {
            EXPECT_EQ(op.kvBytesPerSeq, 0.0) << opName(op.kind);
        }
    }
}

TEST(Ops, NormsAreTiny)
{
    const auto ops = blockDecodeOps(llama2_7b(), hw::Dtype::Bf16, 1024);
    double norm_flops = 0, total_flops = 0;
    for (const auto &op : ops) {
        total_flops += op.flopsPerSeq;
        if (op.kind == OpKind::InputNorm || op.kind == OpKind::PostNorm)
            norm_flops += op.flopsPerSeq;
    }
    EXPECT_LT(norm_flops / total_flops, 0.001);
}

TEST(Ops, Int8HalvesWeightTraffic)
{
    const ModelConfig m = llama2_7b();
    const StepTotals bf = StepTotalsTable(m, hw::Dtype::Bf16).at(64);
    const StepTotals i8 = StepTotalsTable(m, hw::Dtype::Int8).at(64);
    EXPECT_NEAR(i8.weightBytes / bf.weightBytes, 0.5, 0.01);
    // KV stays bf16 under weight-only quantization.
    EXPECT_DOUBLE_EQ(i8.kvBytesPerSeq, bf.kvBytesPerSeq);
}

TEST(Ops, GqaReducesKvTraffic)
{
    const StepTotals mha =
        StepTotalsTable(llama2_7b(), hw::Dtype::Bf16).at(512);
    const StepTotals gqa =
        StepTotalsTable(llama2_70b(), hw::Dtype::Bf16).at(512);
    // Per layer, 70B GQA KV width (1024) < 7B MHA (4096).
    EXPECT_LT(gqa.kvBytesPerSeq / 80.0, mha.kvBytesPerSeq / 32.0);
}

TEST(Ops, UngatedMlpHasFewerOps)
{
    ModelConfig m = llama2_7b();
    m.gatedMlp = false;
    const auto ops = blockDecodeOps(m, hw::Dtype::Bf16, 10);
    double gateup = 0;
    for (const auto &op : ops)
        if (op.kind == OpKind::GateUpProj)
            gateup = op.weightBytes;
    // Single matrix instead of two.
    EXPECT_DOUBLE_EQ(gateup,
                     static_cast<double>(m.hidden) * m.ffn * 2.0);
}

TEST(Ops, LmHeadWeightMatchesVocab)
{
    const ModelConfig m = llama2_7b();
    for (const auto &op : topLevelDecodeOps(m, hw::Dtype::Bf16)) {
        if (op.kind == OpKind::LmHead) {
            EXPECT_DOUBLE_EQ(op.weightBytes,
                             static_cast<double>(m.vocab) * m.hidden *
                                 2.0);
        }
    }
}

TEST(Ops, AllOpsNamed)
{
    for (const auto &op :
         blockDecodeOps(llama2_7b(), hw::Dtype::Bf16, 1)) {
        EXPECT_STRNE(opName(op.kind), "?");
    }
}
