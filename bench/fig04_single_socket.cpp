/**
 * @file
 * Figure 4: single-socket throughput (batch 6, beam 4) and next-token
 * latency (batch 1, beam 1) for Llama2-7B in bf16 and int8 across
 * bare metal, SGX, VM, and TDX on EMR1, with per-token latency
 * distributions summarized after the paper's Z>3 outlier filter.
 */

#include "bench_util.hh"

#include "util/stats.hh"

using namespace cllm;
using namespace cllm::bench;

int
main()
{
    banner("Figure 4",
           "single-socket overheads, Llama2-7B, bf16 + int8 (EMR1)",
           "SGX 4.80-6.15%, TDX 5.51-10.68%, VM 1.82-5.38%; int8 has "
           "almost half the bf16 latency");

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr1();
    const llm::ModelConfig model = llm::llama2_7b();

    for (hw::Dtype dtype : {hw::Dtype::Bf16, hw::Dtype::Int8}) {
        std::cout << "--- dtype " << hw::kDtypeNames.name(dtype) << " ---\n";
        llm::RunParams tput = core::throughputParams(cpu);
        llm::RunParams lat = core::latencyParams(cpu);
        lat.outLen = 1024; // >= 1000 output tokens, as measured
        tput.dtype = lat.dtype = dtype;

        const auto bare_t =
            exp.runCpu(cpu, core::Backend::Bare, model, tput);
        const auto bare_l =
            exp.runCpu(cpu, core::Backend::Bare, model, lat);

        Table t({"backend", "tput [tok/s]", "tput ovh",
                 "lat p50 [ms]", "lat p99 [ms]", "lat ovh",
                 "outliers"});
        for (auto b : {core::Backend::Bare, core::Backend::Sgx,
                       core::Backend::Vm, core::Backend::Tdx}) {
            const auto rt = exp.runCpu(cpu, b, model, tput);
            const auto rl = exp.runCpu(cpu, b, model, lat);
            const SampleSummary s =
                summarize(rl.timing.tokenLatencies, 3.0);
            t.addRow({rt.backend, fmt(rt.timing.decodeTput),
                      fmtPct(core::Experiment::compare(rt, bare_t)
                                 .tputOverheadPct),
                      fmt(1e3 * s.p50), fmt(1e3 * s.p99),
                      fmtPct(core::Experiment::compare(rl, bare_l)
                                 .latencyOverheadPct),
                      fmtPct(100.0 * s.outliers /
                             rl.timing.tokenLatencies.size())});
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "200 ms/token reading-speed bar: all 7B backends stay "
                 "below it.\n";
    return 0;
}
