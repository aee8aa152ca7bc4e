/**
 * @file
 * Figure 3: single-socket bare-metal wall time of different inference
 * frameworks and data types for Llama2-7B, 1024 input + 128 output
 * tokens, batch = beam = 1. The paper's ranking: IPEX fastest, vLLM
 * ~50% slower, Hugging Face ~100% slower, llama.cpp in between.
 */

#include "bench_util.hh"

#include "llm/framework.hh"

using namespace cllm;
using namespace cllm::bench;

int
main()
{
    banner("Figure 3", "framework microbenchmark (bare metal, EMR1)",
           "IPEX fastest; vLLM +50%; HF +100%");

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr1();
    const llm::ModelConfig model = llm::llama2_7b();

    struct Config
    {
        llm::FrameworkProfile fw;
        hw::Dtype dtype;
    };
    const Config configs[] = {
        {llm::hfTransformers(), hw::Dtype::Fp32},
        {llm::hfTransformers(), hw::Dtype::Bf16},
        {llm::vllmCpu(), hw::Dtype::Fp32},
        {llm::vllmCpu(), hw::Dtype::Bf16},
        {llm::llamaCpp(), hw::Dtype::Bf16}, // mixed-precision weights
        {llm::ipex(), hw::Dtype::Bf16},
    };

    std::vector<double> runtimes;
    double ipex_runtime = 0.0;
    for (const auto &cfg : configs) {
        llm::RunParams p = core::latencyParams(cpu);
        p.framework = cfg.fw;
        p.dtype = cfg.dtype;
        const auto r = exp.runCpu(cpu, core::Backend::Bare, model, p);
        runtimes.push_back(r.timing.totalSeconds);
        if (cfg.fw.name == "IPEX")
            ipex_runtime = r.timing.totalSeconds;
    }

    Table t({"framework", "dtype", "runtime [s]", "vs IPEX"});
    for (std::size_t i = 0; i < runtimes.size(); ++i) {
        const auto &cfg = configs[i];
        const std::string label =
            cfg.fw.name == "Llama.cpp" ? "mixed"
                                       : hw::kDtypeNames.name(cfg.dtype);
        t.addRow({cfg.fw.name, label, fmt(runtimes[i]),
                  fmt(runtimes[i] / ipex_runtime, 2) + "x"});
    }
    t.print(std::cout);
    return 0;
}
