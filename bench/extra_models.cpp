/**
 * @file
 * Section III-C cross-check: TDX overheads for the other 7B-class
 * models the paper verified (Llama3 8B, GPT-J 6B, Falcon 7B,
 * Baichuan2 7B, Qwen 7B), expected in the 3.1-13.1% range, in line
 * with the Llama2-7B results.
 */

#include "bench_util.hh"

using namespace cllm;
using namespace cllm::bench;

int
main()
{
    banner("Section III-C", "cross-model TDX overheads (EMR1)",
           "3.1-13.1% across Llama3 8B, GPT-J, Falcon, Baichuan2, "
           "Qwen");

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr1();

    Table t({"model", "params [B]", "tput bare [tok/s]",
             "tput TDX [tok/s]", "TDX overhead"});
    for (const auto &model :
         {llm::llama2_7b(), llm::llama3_8b(), llm::gptj_6b(),
          llm::falcon_7b(), llm::baichuan2_7b(), llm::qwen_7b()}) {
        const auto p = core::throughputParams(cpu);
        const auto bare =
            exp.runCpu(cpu, core::Backend::Bare, model, p);
        const auto tdx = exp.runCpu(cpu, core::Backend::Tdx, model, p);
        t.addRow({model.name, fmt(model.numParams() / 1e9, 2),
                  fmt(bare.timing.decodeTput),
                  fmt(tdx.timing.decodeTput),
                  fmtPct(core::Experiment::compare(tdx, bare)
                             .tputOverheadPct)});
    }
    t.print(std::cout);
    return 0;
}
