/**
 * @file
 * cllm sweep tool: a small CLI over the public API so deployments can
 * be explored without writing C++. Prints one row per configuration,
 * optionally as CSV. `sweep_tool --help` lists the flags.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "run_flags.hh"
#include "util/table.hh"

using namespace cllm;

namespace {

std::vector<unsigned>
parseList(const std::string &s)
{
    std::vector<unsigned> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(parseNumber<unsigned>("--batch", item, 1));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    llm::ModelPreset model_preset = llm::llama2_7b;
    hw::CpuPreset machine = hw::emr1;
    std::vector<core::Backend> backends = kAllBackends;
    std::vector<unsigned> batches = {1};
    llm::RunParams p;
    bool csv = false;
    const Flags flags = concatFlags({
        {choiceFlag("--machine", machine, hw::kCpuPresets,
                    "machine preset")},
        runFlags("--", p, model_preset, backends),
        {
            {"--batch", "N[,N...]",
             "batch sizes, one row each (default 1)",
             [&](const char *v) { batches = parseList(v); }},
            switchFlag("--no-amx", p.amx, "disable AMX tiles", false),
            switchFlag("--csv", csv, "print CSV instead of a table"),
        },
    });
    parseFlags("sweep_tool",
               "Runs every (backend, batch) pair through the CPU timing "
               "model and prints\nthroughput, latency and the overhead "
               "versus bare metal.",
               flags, argc, argv);

    const llm::ModelConfig model = model_preset();
    const hw::CpuSpec cpu = machine();

    core::Experiment exp;
    Table t({"backend", "batch", "tput [tok/s]", "e2e [tok/s]",
             "latency [ms/tok]", "overhead vs bare"});
    for (unsigned batch : batches) {
        p.batch = batch;
        const auto bare =
            exp.runCpu(cpu, core::Backend::Bare, model, p);
        for (core::Backend b : backends) {
            const auto r = exp.runCpu(cpu, b, model, p);
            t.addRow({r.backend, std::to_string(batch),
                      fmt(r.timing.decodeTput), fmt(r.timing.e2eTput),
                      fmt(1e3 * r.timing.meanTokenLatency),
                      fmtPct(core::Experiment::compare(r, bare)
                                 .tputOverheadPct)});
        }
    }
    std::cout << model.name << " on " << cpu.name << ", "
              << hw::kDtypeNames.name(p.dtype)
              << (p.amx ? " (AMX)" : " (no AMX)") << "\n";
    if (csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    return 0;
}
