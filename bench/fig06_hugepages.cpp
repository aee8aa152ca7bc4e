/**
 * @file
 * Figure 6: hugepage backing on two sockets — VM with preallocated
 * 1 GiB pages (VM FH), VM with 2 MiB transparent hugepages (VM TH),
 * and TDX (which silently uses 2 MiB THP regardless, Insight 7).
 */

#include "bench_util.hh"

using namespace cllm;
using namespace cllm::bench;

int
main()
{
    banner("Figure 6",
           "hugepage strategies on two sockets, Llama2-13B (EMR1)",
           "VM TH costs 3.19-5.20% over VM FH; TDX over VM TH stays "
           "at single-socket magnitude (4-10%)");

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr1();
    const llm::ModelConfig model = llm::llama2_13b();

    const auto tput = core::throughputParams(cpu, 2);
    const auto lat = core::latencyParams(cpu, 2);

    const auto fh_t = exp.runCpu(cpu, core::Backend::Vm, model, tput);
    const auto fh_l = exp.runCpu(cpu, core::Backend::Vm, model, lat);

    Table t({"backend", "pages", "tput [tok/s]", "tput ovh vs VM FH",
             "latency [ms]", "lat ovh vs VM FH"});
    struct Row
    {
        core::Backend b;
        const char *pages;
    };
    for (const Row &row : {Row{core::Backend::Vm, "1G prealloc"},
                           Row{core::Backend::VmTh, "2M THP"},
                           Row{core::Backend::Tdx, "2M THP (forced)"}}) {
        const auto rt = exp.runCpu(cpu, row.b, model, tput);
        const auto rl = exp.runCpu(cpu, row.b, model, lat);
        t.addRow({rt.backend, row.pages, fmt(rt.timing.decodeTput),
                  fmtPct(core::Experiment::compare(rt, fh_t)
                             .tputOverheadPct),
                  fmt(1e3 * rl.timing.meanTokenLatency),
                  fmtPct(core::Experiment::compare(rl, fh_l)
                             .latencyOverheadPct)});
    }
    t.print(std::cout);

    const auto th_t = exp.runCpu(cpu, core::Backend::VmTh, model, tput);
    const auto tdx_t = exp.runCpu(cpu, core::Backend::Tdx, model, tput);
    std::cout << "\nTDX over VM TH (same page size): "
              << fmtPct(core::Experiment::compare(tdx_t, th_t)
                            .tputOverheadPct)
              << "\n";
    return 0;
}
