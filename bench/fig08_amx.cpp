/**
 * @file
 * Figure 8: AMX versus no-AMX across batch sizes for Llama2-7B
 * (128 in/out, EMR2). Overheads are reported relative to a VM running
 * AMX, matching the figure's caption. bf16 shows a small AMX edge at
 * batch 1 growing to hundreds of percent; int8 without AMX falls off
 * a cliff (no AVX int8 kernels in IPEX).
 */

#include "bench_util.hh"

using namespace cllm;
using namespace cllm::bench;

int
main()
{
    banner("Figure 8", "AMX effect across batch sizes (EMR2)",
           "AMX: 1-4% edge at batch 1, hundreds of percent at large "
           "batches; int8 without AMX: up to 96% tput / 1700% latency "
           "overhead");

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();

    for (hw::Dtype dtype : {hw::Dtype::Bf16, hw::Dtype::Int8}) {
        std::cout << "--- dtype " << hw::kDtypeNames.name(dtype) << " ---\n";
        Table t({"batch", "VM+AMX [tok/s]", "TDX+AMX ovh",
                 "TDX noAMX ovh", "AMX speedup"});
        for (unsigned batch : {1u, 8u, 32u, 128u, 512u}) {
            llm::RunParams p;
            p.batch = batch;
            p.inLen = 128;
            p.outLen = 128;
            p.sockets = 1;
            p.cores = cpu.coresPerSocket;
            p.dtype = dtype;

            p.amx = true;
            const auto vm_amx =
                exp.runCpu(cpu, core::Backend::Vm, model, p);
            const auto tdx_amx =
                exp.runCpu(cpu, core::Backend::Tdx, model, p);
            p.amx = false;
            const auto tdx_noamx =
                exp.runCpu(cpu, core::Backend::Tdx, model, p);

            t.addRow({std::to_string(batch),
                      fmt(vm_amx.timing.decodeTput),
                      fmtPct(core::Experiment::compare(tdx_amx, vm_amx)
                                 .tputOverheadPct),
                      fmtPct(core::Experiment::compare(tdx_noamx,
                                                       vm_amx)
                                 .tputOverheadPct),
                      fmt(tdx_amx.timing.decodeTput /
                              tdx_noamx.timing.decodeTput,
                          2) +
                          "x"});
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}
