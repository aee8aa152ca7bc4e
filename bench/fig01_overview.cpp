/**
 * @file
 * Figure 1: headline results — Llama2-7B inference throughput and
 * latency inside a VM TEE (TDX), an application TEE (Gramine-SGX),
 * and a confidential GPU, against their natural baselines.
 */

#include "bench_util.hh"

using namespace cllm;
using namespace cllm::bench;

int
main()
{
    banner("Figure 1",
           "Llama2-7B in CPU TEEs (TDX, SGX) and a GPU TEE (cGPU)",
           "TEEs for LLMs incur only 4-7% throughput reduction");

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr1();
    const llm::ModelConfig model = llm::llama2_7b();

    const auto tput = core::throughputParams(cpu);
    const auto lat = core::latencyParams(cpu);

    Table t({"system", "tput [tok/s]", "tput overhead",
             "latency [ms/tok]", "latency overhead"});

    const auto bare_t = exp.runCpu(cpu, core::Backend::Bare, model, tput);
    const auto bare_l = exp.runCpu(cpu, core::Backend::Bare, model, lat);
    for (auto b : {core::Backend::Bare, core::Backend::Vm,
                   core::Backend::Sgx, core::Backend::Tdx}) {
        const auto rt = exp.runCpu(cpu, b, model, tput);
        const auto rl = exp.runCpu(cpu, b, model, lat);
        t.addRow({rt.backend, fmt(rt.timing.decodeTput),
                  fmtPct(core::Experiment::compare(rt, bare_t)
                             .tputOverheadPct),
                  fmt(1e3 * rl.timing.meanTokenLatency),
                  fmtPct(core::Experiment::compare(rl, bare_l)
                             .latencyOverheadPct)});
    }

    const hw::GpuSpec gpu = hw::h100Nvl();
    llm::GpuRunParams g;
    g.batch = 16;
    g.inLen = 1024;
    g.outLen = 128;
    const auto graw = exp.runGpu(gpu, model, g);
    g.confidential = true;
    const auto gcc = exp.runGpu(gpu, model, g);
    t.addRow({"GPU (H100)", fmt(graw.timing.decodeTput), "0.0%",
              fmt(1e3 * graw.timing.meanTokenLatency), "0.0%"});
    t.addRow({"cGPU (H100 CC)", fmt(gcc.timing.decodeTput),
              fmtPct(core::Experiment::compare(gcc, graw)
                         .tputOverheadPct),
              fmt(1e3 * gcc.timing.meanTokenLatency),
              fmtPct(core::Experiment::compare(gcc, graw)
                         .latencyOverheadPct)});
    t.print(std::cout);
    return 0;
}
