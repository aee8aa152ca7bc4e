/**
 * @file
 * Figure 10: generation throughput versus input size for Llama2-7B,
 * batch 64, 128 output tokens, single EMR2 socket. Overheads relative
 * to bare metal. The paper: TDX overhead falls with input size until
 * ~2048 tokens (growing arithmetic intensity), then rises as the KV
 * cache makes the workload memory/TLB-bound.
 */

#include "bench_util.hh"

using namespace cllm;
using namespace cllm::bench;

int
main()
{
    banner("Figure 10", "input-size scaling, Llama2-7B batch 64 (EMR2)",
           "overhead falls until ~2048 input tokens, then rises (KV "
           "cache/TLB pressure)");

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();

    const std::vector<unsigned> in_lens = {128u,  256u,  512u, 1024u,
                                           2048u, 4096u, 8192u};
    for (hw::Dtype dtype : {hw::Dtype::Bf16, hw::Dtype::Int8}) {
        std::cout << "--- dtype " << hw::kDtypeNames.name(dtype) << " ---\n";
        Table t({"input", "e2e tput [tok/s]", "TDX e2e ovh",
                 "decode tput [tok/s]", "TDX decode ovh",
                 "working set [GB]"});
        const auto rows = runGrid<std::vector<std::string>>(
            in_lens.size(), [&](std::size_t gi) {
                const unsigned in_len = in_lens[gi];
                llm::RunParams p;
                p.batch = 64;
                p.inLen = in_len;
                p.outLen = 128;
                p.dtype = dtype;
                p.sockets = 1;
                p.cores = cpu.coresPerSocket;

                const auto bare =
                    exp.runCpu(cpu, core::Backend::Bare, model, p);
                const auto tdx =
                    exp.runCpu(cpu, core::Backend::Tdx, model, p);
                const auto cmp = core::Experiment::compare(tdx, bare);
                return std::vector<std::string>{
                    std::to_string(in_len),
                    fmt(bare.timing.e2eTput),
                    fmtPct(cmp.e2eOverheadPct),
                    fmt(bare.timing.decodeTput),
                    fmtPct(cmp.tputOverheadPct),
                    fmt(bare.timing.workingSetBytes / 1e9, 1)};
            });
        for (const auto &row : rows)
            t.addRow(row);
        t.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}
