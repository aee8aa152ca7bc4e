/**
 * @file
 * Figure 5: Llama2-70B on two sockets — TDX versus a VM with QEMU
 * NUMA bindings (VM B) and one without (VM NB). Shows the cost of the
 * TDX KVM driver ignoring NUMA bindings (Insight 6) and the loss of
 * the 200 ms/token service level.
 */

#include "bench_util.hh"

using namespace cllm;
using namespace cllm::bench;

int
main()
{
    banner("Figure 5",
           "Llama2-70B on two sockets: NUMA binding fidelity (EMR1)",
           "TDX lands between VM B and VM NB; SGX degrades up to "
           "~230%; the 200 ms/token level is no longer upheld");

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr1();
    const llm::ModelConfig model = llm::llama2_70b();

    auto tput = core::throughputParams(cpu, 2);
    auto lat = core::latencyParams(cpu, 2);

    const auto base_t = exp.runCpu(cpu, core::Backend::Vm, model, tput);
    const auto base_l = exp.runCpu(cpu, core::Backend::Vm, model, lat);

    Table t({"backend", "tput [tok/s]", "tput ovh vs VM B",
             "latency [ms/tok]", "lat ovh vs VM B", "<200ms?"});
    for (auto b : {core::Backend::Vm, core::Backend::Tdx,
                   core::Backend::VmNb, core::Backend::Sgx}) {
        const auto rt = exp.runCpu(cpu, b, model, tput);
        const auto rl = exp.runCpu(cpu, b, model, lat);
        t.addRow({rt.backend, fmt(rt.timing.decodeTput),
                  fmtPct(core::Experiment::compare(rt, base_t)
                             .tputOverheadPct),
                  fmt(1e3 * rl.timing.meanTokenLatency),
                  fmtPct(core::Experiment::compare(rl, base_l)
                             .latencyOverheadPct),
                  rl.timing.meanTokenLatency < 0.2 ? "yes" : "NO"});
    }
    t.print(std::cout);

    // Sub-NUMA clustering side-experiment (Section IV-A).
    std::cout << "\nSub-NUMA clustering (Section IV-A, Llama2-7B, one "
                 "socket):\n";
    const llm::ModelConfig small = llm::llama2_7b();
    auto p7 = core::throughputParams(cpu);
    const auto bare7 = exp.runCpu(cpu, core::Backend::Bare, small, p7);
    const auto tdx7 = exp.runCpu(cpu, core::Backend::Tdx, small, p7);
    p7.sncEnabled = true;
    const auto tdx7snc = exp.runCpu(cpu, core::Backend::Tdx, small, p7);
    std::cout << "  TDX overhead SNC off: "
              << fmtPct(core::Experiment::compare(tdx7, bare7)
                            .tputOverheadPct)
              << ", SNC on: "
              << fmtPct(core::Experiment::compare(tdx7snc, bare7)
                            .tputOverheadPct)
              << "  (paper: ~5% -> ~42%)\n";
    return 0;
}
