/**
 * @file
 * Tests for the CPU timing model's mechanics: determinism, model-size
 * ordering, parameter validation and the step kernel's formulas. The
 * paper's bands are rows of the calibration table
 * (bench/calibration.hh), checked by test_calibration.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "step_totals_ref.hh"

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

namespace {

/** The decode formula on the reference totals of each call. */
StepCost
refDecode(const DeploymentRates &r, const ModelConfig &m, hw::Dtype dt,
          double beta, double seqs, double width, double depth)
{
    const StepTotals tot =
        cllm::testing::perOpSum(m, dt, depth, seqs);
    const double flops = seqs * tot.flopsPerSeq * width;
    const double weight_traffic =
        tot.weightBytes * (r.weightBytesPerParam / hw::dtypeBytes(dt));
    const double bytes =
        weight_traffic +
        seqs * width *
            (tot.actBytesPerSeq * r.actFactor + tot.kvBytesPerSeq);
    const double op_factor = dt == hw::Dtype::Int8 ? 1.25 : 1.0;
    StepCost c;
    c.compute = flops / r.decodeRate;
    c.memory = bytes / r.bw + bytes * r.tax.extraSecPerByte;
    c.fixed = tot.opCount * op_factor * r.tax.perOpFixedSec;
    c.boundary = r.tax.perTokenFixedSec;
    c.overlap = beta;
    return c;
}

/** The prefill formula on the reference totals at mid-slice depth. */
StepCost
refPrefill(const DeploymentRates &r, const ModelConfig &m, hw::Dtype dt,
           double beta, unsigned prompts, unsigned done, unsigned chunk,
           bool weights_streamed)
{
    const double s = chunk;
    const double t0 = done;
    const double t1 = t0 + s;
    const double flops =
        prompts * (2.0 * static_cast<double>(m.matmulParams()) * s +
                   2.0 * m.layers * m.hidden * (t1 * t1 - t0 * t0));
    const double weight_bytes =
        static_cast<double>(m.numParams()) * r.weightBytesPerParam;
    const double kv_write = prompts * m.kvBytesPerToken(dt) * s;
    const double kv_read = prompts * m.kvBytesPerToken(dt) * t0;
    const StepTotals tot =
        cllm::testing::perOpSum(m, dt, t0 + s / 2.0);
    const double bytes =
        (weights_streamed ? 0.0 : weight_bytes) +
        prompts * tot.actBytesPerSeq * s * r.actFactor * 0.25 +
        kv_write + kv_read;
    StepCost c;
    c.compute = flops / r.prefillRate;
    c.memory = bytes / r.bw + bytes * r.tax.extraSecPerByte;
    c.fixed = tot.opCount * r.tax.perOpFixedSec;
    c.boundary = prompts * r.tax.perTokenFixedSec;
    c.overlap = beta;
    return c;
}

void
expectSameBits(const StepCost &got, const StepCost &ref)
{
    using cllm::testing::bits;
    EXPECT_EQ(bits(got.compute), bits(ref.compute));
    EXPECT_EQ(bits(got.memory), bits(ref.memory));
    EXPECT_EQ(bits(got.fixed), bits(ref.fixed));
    EXPECT_EQ(bits(got.boundary), bits(ref.boundary));
    EXPECT_EQ(bits(got.overlap), bits(ref.overlap));
}

/** Every decode and prefill shape below, kernel against reference. */
void
expectKernelMatchesReference(const CpuStepKernel &k, const ModelConfig &m,
                             hw::Dtype dt, double beta)
{
    const DeploymentRates &r = k.rates();
    for (double seqs : {1.0, 3.0, 32.0})
        for (double width : {1.0, 4.0, 5.0})
            for (double depth : {0.0, 0.383, 511.5, 700.37, 4096.0})
                expectSameBits(
                    k.decode(seqs, width, depth),
                    refDecode(r, m, dt, beta, seqs, width, depth));
    for (unsigned prompts : {1u, 3u})
        for (unsigned done : {0u, 512u})
            for (unsigned chunk : {1u, 256u})
                for (bool streamed : {false, true})
                    expectSameBits(k.prefill(prompts, done, chunk, streamed),
                                   refPrefill(r, m, dt, beta, prompts, done,
                                              chunk, streamed));
}

} // namespace

// The kernel binds its constants and decode-totals table at
// construction; every StepCost field must still equal the per-call
// formulas on the per-op reference totals, bit for bit.
TEST(CpuKernelOracle, DecodeAndPrefillMatchReferenceBitwise)
{
    const hw::CpuSpec cpu = hw::emr2();
    const CpuPerfModel perf;
    for (Backend b : {Backend::Bare, Backend::Tdx, Backend::Sgx}) {
        const auto backend = makeBackend(b);
        for (const ModelConfig &m : {llama2_7b(), mixtral_8x7b()})
            for (hw::Dtype dt : {hw::Dtype::Bf16, hw::Dtype::Int8})
                for (const FrameworkProfile &fw : {ipex(), llamaCpp()}) {
                    RunParams p;
                    p.dtype = dt;
                    p.batch = 16;
                    p.inLen = 1024;
                    p.outLen = 256;
                    p.sockets = 1;
                    p.framework = fw;
                    SCOPED_TRACE(::testing::Message()
                                 << backend->name() << " " << m.name
                                 << " " << hw::kDtypeNames.name(dt)
                                 << " " << fw.name);
                    expectKernelMatchesReference(
                        perf.kernel(cpu, *backend, m, p), m, dt,
                        perf.config().overlapBeta);
                }
    }
}
