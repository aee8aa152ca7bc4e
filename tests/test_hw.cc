/**
 * @file
 * Tests for the hardware presets: AMX/AVX throughput relationships
 * (Insight 3 / Figure 8 preconditions), dtype properties, and machine
 * descriptions matching the paper's Section III-C.
 */

#include <gtest/gtest.h>

#include "hw/cpu.hh"
#include "hw/gpu.hh"

using namespace cllm::hw;

TEST(Dtype, ByteSizes)
{
    EXPECT_EQ(dtypeBytes(Dtype::Fp32), 4.0);
    EXPECT_EQ(dtypeBytes(Dtype::Bf16), 2.0);
    EXPECT_EQ(dtypeBytes(Dtype::Int8), 1.0);
}

TEST(Dtype, Names)
{
    EXPECT_STREQ(kDtypeNames.name(Dtype::Fp32), "fp32");
    EXPECT_STREQ(kDtypeNames.name(Dtype::Bf16), "bf16");
    EXPECT_STREQ(kDtypeNames.name(Dtype::Int8), "int8");
}

TEST(CpuSpec, AmxMultipliesBf16Throughput)
{
    const CpuSpec cpu = emr2();
    const double amx = cpu.peakOps(Dtype::Bf16, true, 8);
    const double avx = cpu.peakOps(Dtype::Bf16, false, 8);
    EXPECT_DOUBLE_EQ(amx / avx, 4.0); // 512 vs 128 ops/cycle
}

TEST(CpuSpec, AmxInt8DoublesBf16)
{
    const CpuSpec cpu = emr2();
    EXPECT_DOUBLE_EQ(cpu.peakOps(Dtype::Int8, true, 8) /
                         cpu.peakOps(Dtype::Bf16, true, 8),
                     2.0);
}

TEST(CpuSpec, Int8WithoutAmxIsCatastrophic)
{
    // "lack of AVX implementation for int8 in IPEX" (Figure 8): the
    // fallback path must be orders of magnitude slower.
    const CpuSpec cpu = emr2();
    const double ratio = cpu.peakOps(Dtype::Int8, true, 8) /
                         cpu.peakOps(Dtype::Int8, false, 8);
    EXPECT_GT(ratio, 100.0);
}

TEST(CpuSpec, Fp32IgnoresAmx)
{
    const CpuSpec cpu = emr1();
    EXPECT_DOUBLE_EQ(cpu.peakOps(Dtype::Fp32, true, 4),
                     cpu.peakOps(Dtype::Fp32, false, 4));
}

TEST(CpuSpec, PeakScalesLinearlyWithCores)
{
    const CpuSpec cpu = emr1();
    EXPECT_DOUBLE_EQ(cpu.peakOps(Dtype::Bf16, true, 32),
                     2.0 * cpu.peakOps(Dtype::Bf16, true, 16));
}

TEST(CpuSpec, Emr1MatchesPaper)
{
    const CpuSpec cpu = emr1();
    EXPECT_EQ(cpu.sockets, 2u);
    EXPECT_EQ(cpu.coresPerSocket, 32u);
    EXPECT_EQ(cpu.totalCores(), 64u);
    EXPECT_NEAR(cpu.freqGhz, 2.1, 1e-9);
    EXPECT_NEAR(cpu.cpuPriceUsd, 2130.0, 1e-9);
}

TEST(CpuSpec, Emr2MatchesPaper)
{
    const CpuSpec cpu = emr2();
    EXPECT_EQ(cpu.coresPerSocket, 60u);
    EXPECT_NEAR(cpu.freqGhz, 2.0, 1e-9);
    EXPECT_NEAR(cpu.cpuPriceUsd, 10710.0, 1e-9);
}

TEST(CpuSpec, SprIsSlowerAndCheaper)
{
    const CpuSpec s = spr();
    const CpuSpec e = emr2();
    EXPECT_LT(s.kernelEfficiency, e.kernelEfficiency);
    EXPECT_LT(s.dramBwPerSocket, e.dramBwPerSocket);
    EXPECT_LT(s.cpuPriceUsd, e.cpuPriceUsd * 0.6);
}

TEST(CpuSpecDeath, InvalidCoreCountFatal)
{
    const CpuSpec cpu = emr1();
    EXPECT_DEATH(cpu.peakOps(Dtype::Bf16, true, 0), "core");
    EXPECT_DEATH(cpu.peakOps(Dtype::Bf16, true, 1000), "core");
}

TEST(GpuSpec, H100Properties)
{
    const GpuSpec g = h100Nvl();
    EXPECT_GT(g.hbmBwBytes, 3e12);
    EXPECT_NEAR(g.hbmBytes, 94e9, 1e9);
    EXPECT_FALSE(g.hbmEncrypted); // the paper's security caveat
}

TEST(GpuSpec, Int8DoublesBf16)
{
    const GpuSpec g = h100Nvl();
    EXPECT_NEAR(g.peakOps(Dtype::Int8) / g.peakOps(Dtype::Bf16), 2.0,
                1e-9);
}

TEST(GpuSpec, TensorFlopsDwarfFp32)
{
    const GpuSpec g = h100Nvl();
    EXPECT_GT(g.peakOps(Dtype::Bf16) / g.peakOps(Dtype::Fp32), 5.0);
}

TEST(GpuSpec, ConfidentialLaunchCostExceedsPlain)
{
    const GpuSpec g = h100Nvl();
    EXPECT_GT(g.ccLaunchExtraUs, g.kernelLaunchUs);
    EXPECT_LT(g.ccBounceBwBytes, g.pcieBwBytes);
}
