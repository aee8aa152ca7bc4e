/**
 * @file
 * Tests for the public Experiment facade and the Table-I summary
 * matrix.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "core/summary.hh"

using namespace cllm;
using namespace cllm::core;

TEST(Experiment, BackendNamesRoundtrip)
{
    for (Backend b : {Backend::Bare, Backend::Vm, Backend::VmTh,
                      Backend::VmNb, Backend::Sgx, Backend::Tdx}) {
        const auto be = makeBackend(b);
        EXPECT_EQ(be->name(), backendName(b));
    }
}

TEST(Experiment, CompareMath)
{
    ExperimentResult fast, slow;
    fast.backend = "bare";
    fast.timing.decodeTput = 100.0;
    fast.timing.meanTokenLatency = 0.010;
    fast.timing.e2eTput = 80.0;
    slow.backend = "TDX";
    slow.timing.decodeTput = 90.0;
    slow.timing.meanTokenLatency = 0.012;
    slow.timing.e2eTput = 72.0;

    const auto rep = Experiment::compare(slow, fast);
    EXPECT_EQ(rep.name, "TDX");
    EXPECT_EQ(rep.baseline, "bare");
    EXPECT_NEAR(rep.tputOverheadPct, 100.0 / 90.0 * 100.0 - 100.0,
                1e-9);
    EXPECT_NEAR(rep.latencyOverheadPct, 20.0, 1e-9);
    EXPECT_NEAR(rep.e2eOverheadPct, 80.0 / 72.0 * 100.0 - 100.0, 1e-9);
}

TEST(Experiment, CpuRunPopulatesResult)
{
    Experiment exp;
    llm::RunParams p;
    p.batch = 1;
    p.inLen = 64;
    p.outLen = 16;
    p.sockets = 1;
    p.cores = 8;
    const auto r =
        exp.runCpu(hw::emr1(), Backend::Tdx, llm::llama2_7b(), p);
    EXPECT_EQ(r.backend, "TDX");
    EXPECT_EQ(r.timing.tokenLatencies.size(), 16u);
    EXPECT_GT(r.timing.decodeTput, 0.0);
    EXPECT_GT(r.timing.prefillSeconds, 0.0);
    EXPECT_GT(r.timing.workingSetBytes, 1e9);
}

TEST(Experiment, GpuRunLabelsConfidentiality)
{
    Experiment exp;
    llm::GpuRunParams p;
    p.batch = 1;
    p.inLen = 64;
    p.outLen = 8;
    EXPECT_EQ(exp.runGpu(hw::h100Nvl(), llm::llama2_7b(), p).backend,
              "GPU");
    p.confidential = true;
    EXPECT_EQ(exp.runGpu(hw::h100Nvl(), llm::llama2_7b(), p).backend,
              "cGPU");
}

TEST(Experiment, CostHelpersPositive)
{
    Experiment exp;
    llm::RunParams p;
    p.batch = 4;
    p.inLen = 128;
    p.outLen = 32;
    p.sockets = 1;
    p.cores = 16;
    const auto r =
        exp.runCpu(hw::emr2(), Backend::Tdx, llm::llama2_7b(), p);
    const double usd = Experiment::cpuCostPerMTokens(
        r, cost::gcpSpotUsEast1(), 16, 128.0);
    EXPECT_GT(usd, 0.1);
    EXPECT_LT(usd, 100.0);

    llm::GpuRunParams g;
    g.batch = 4;
    g.inLen = 128;
    g.outLen = 32;
    const auto gr = exp.runGpu(hw::h100Nvl(), llm::llama2_7b(), g);
    const double gusd =
        Experiment::gpuCostPerMTokens(gr, cost::cgpuH100());
    EXPECT_GT(gusd, 0.1);
    EXPECT_LT(gusd, 100.0);
}

TEST(Summary, MatrixHasAllDimensions)
{
    const auto rows = buildSummaryMatrix();
    ASSERT_GE(rows.size(), 10u);
    bool has_mem = false, has_cost = false, has_sources = false;
    for (const auto &r : rows) {
        has_mem |= r.dimension.find("memory encryption") !=
                   std::string::npos;
        has_cost |= r.dimension.find("cost") != std::string::npos;
        has_sources |= r.dimension.find("overhead sources") !=
                       std::string::npos;
    }
    EXPECT_TRUE(has_mem);
    EXPECT_TRUE(has_cost);
    EXPECT_TRUE(has_sources);
}

TEST(Summary, CgpuRowsFlagHbmAndNvlink)
{
    const auto rows = buildSummaryMatrix();
    bool hbm = false, nvlink = false;
    for (const auto &r : rows) {
        hbm |= r.cgpu.find("HBM clear") != std::string::npos;
        nvlink |= r.cgpu.find("NVLINK clear") != std::string::npos;
    }
    EXPECT_TRUE(hbm);
    EXPECT_TRUE(nvlink);
}

TEST(Summary, PrintsWithoutCrashing)
{
    std::ostringstream os;
    printSummaryMatrix(os, buildSummaryMatrix());
    EXPECT_GT(os.str().size(), 200u);
    EXPECT_NE(os.str().find("Intel TDX"), std::string::npos);
}
