/**
 * @file
 * Figure 9: next-token latency (two sockets) and throughput (one
 * socket) versus batch size, 128 in/out tokens, on EMR2. Overheads
 * are relative to bare metal. The paper: int8 saturates throughput
 * around batch 64, bf16 around 512, and TDX overheads fall once the
 * workload turns compute-bound (Insights 8-9).
 */

#include "bench_util.hh"

using namespace cllm;
using namespace cllm::bench;

int
main()
{
    banner("Figure 9", "batch-size scaling, Llama2-7B (EMR2)",
           "int8 saturates ~batch 64 (ovh 9-11% -> <=6%); bf16 "
           "~batch 512 (7-10% -> 4-7%), minimum ~2% near batch 64");

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();

    const std::vector<unsigned> batches = {1u,   4u,   16u, 64u,
                                           128u, 256u, 512u};
    for (hw::Dtype dtype : {hw::Dtype::Bf16, hw::Dtype::Int8}) {
        std::cout << "--- dtype " << hw::kDtypeNames.name(dtype) << " ---\n";
        Table t({"batch", "tput 1-socket [tok/s]", "TDX tput ovh",
                 "latency 2-socket [ms]", "TDX lat ovh", "bound"});
        // Each batch point is an independent model evaluation; fan
        // the grid out across cores and print in order afterwards.
        const auto rows = runGrid<std::vector<std::string>>(
            batches.size(), [&](std::size_t gi) {
                const unsigned batch = batches[gi];
                llm::RunParams tp;
                tp.batch = batch;
                tp.inLen = 128;
                tp.outLen = 128;
                tp.dtype = dtype;
                tp.sockets = 1;
                tp.cores = cpu.coresPerSocket;
                llm::RunParams lp = tp;
                lp.sockets = 2;
                lp.cores = cpu.totalCores();

                const auto bare_t =
                    exp.runCpu(cpu, core::Backend::Bare, model, tp);
                const auto tdx_t =
                    exp.runCpu(cpu, core::Backend::Tdx, model, tp);
                const auto bare_l =
                    exp.runCpu(cpu, core::Backend::Bare, model, lp);
                const auto tdx_l =
                    exp.runCpu(cpu, core::Backend::Tdx, model, lp);

                return std::vector<std::string>{
                    std::to_string(batch),
                    fmt(bare_t.timing.decodeTput),
                    fmtPct(core::Experiment::compare(tdx_t, bare_t)
                               .tputOverheadPct),
                    fmt(1e3 * tdx_l.timing.meanTokenLatency),
                    fmtPct(core::Experiment::compare(tdx_l, bare_l)
                               .latencyOverheadPct),
                    bare_t.timing.memoryBound ? "memory" : "compute"};
            });
        for (const auto &row : rows)
            t.addRow(row);
        t.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}
