/**
 * @file
 * Tests for the CPU timing model's mechanics: determinism, model-size
 * ordering and parameter validation. The paper's bands are rows of
 * the calibration table (bench/calibration.hh), checked by
 * test_calibration.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

using namespace cllm;
using namespace cllm::core;
using namespace cllm::llm;

TEST(PerfCpu, SeedReproducibility)
{
    Experiment exp;
    const auto cpu = hw::emr1();
    const auto p = latencyParams(cpu);
    const auto a = exp.runCpu(cpu, Backend::Tdx, llama2_7b(), p);
    const auto b = exp.runCpu(cpu, Backend::Tdx, llama2_7b(), p);
    EXPECT_EQ(a.timing.tokenLatencies, b.timing.tokenLatencies);
}

TEST(PerfCpu, BiggerModelSlower)
{
    Experiment exp;
    const auto cpu = hw::emr2();
    RunParams p;
    p.batch = 1;
    p.inLen = 128;
    p.outLen = 32;
    p.sockets = 2;
    p.cores = cpu.totalCores();
    const auto m7 = exp.runCpu(cpu, Backend::Bare, llama2_7b(), p);
    const auto m13 = exp.runCpu(cpu, Backend::Bare, llama2_13b(), p);
    const auto m70 = exp.runCpu(cpu, Backend::Bare, llama2_70b(), p);
    EXPECT_GT(m7.timing.decodeTput, m13.timing.decodeTput);
    EXPECT_GT(m13.timing.decodeTput, m70.timing.decodeTput);
}

TEST(PerfCpuDeath, InvalidParamsFatal)
{
    Experiment exp;
    const auto cpu = hw::emr1();
    RunParams p;
    p.sockets = 5;
    EXPECT_DEATH(exp.runCpu(cpu, Backend::Bare, llama2_7b(), p),
                 "socket");
    p.sockets = 1;
    p.batch = 0;
    EXPECT_DEATH(exp.runCpu(cpu, Backend::Bare, llama2_7b(), p),
                 "positive");
    p.batch = 1;
    p.cores = 1000;
    EXPECT_DEATH(exp.runCpu(cpu, Backend::Bare, llama2_7b(), p),
                 "cores");
}
