/**
 * @file
 * Config-driven experiment runner: describe a reproduction as an INI
 * file (see the configs directory) instead of C++. Each `[experiment:...]`
 * section is one run; results print as a table or, with --json, as a
 * machine-readable document for plotting. Keys are strict: each
 * parses with the range and spelling of the matching sweep_tool flag,
 * and an unknown section, key or value is fatal.
 *
 * Usage: experiment_from_config <config.ini> [--json]
 */

#include <fstream>
#include <iostream>

#include "run_flags.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace cllm;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: " << argv[0] << " <config.ini> [--json]\n";
        return 1;
    }
    const bool as_json = argc > 2 && std::string(argv[2]) == "--json";

    const auto parsed = Config::load(argv[1]);
    if (!parsed.ok) {
        std::cerr << "config error: " << parsed.error << "\n";
        return 1;
    }
    const Config &cfg = parsed.config;

    // Every key goes through a flag row: the run rows sweep_tool
    // declares, plus batch and amx. Unknown sections and keys are
    // fatal rather than silently ignored.
    hw::CpuPreset machine = hw::emr1;
    applyConfigSection(cfg, "machine",
                       {choiceFlag(configPrefix("machine") + "name",
                                   machine, hw::kCpuPresets,
                                   "machine preset")});
    const hw::CpuSpec cpu = machine();

    core::Experiment exp;
    struct Row
    {
        std::string name, backend;
        llm::TimingResult timing;
        double overhead_pct;
    };
    std::vector<Row> rows;
    for (const std::string &section : cfg.sections()) {
        const std::string prefix = configPrefix(section);
        if (section == "machine")
            continue;
        if (!section.starts_with("experiment"))
            cllm_fatal(prefix, "unknown section");
        llm::RunParams p;
        llm::ModelPreset preset = llm::llama2_7b;
        std::vector<core::Backend> backends = {core::Backend::Tdx};
        Flags keys = runFlags(prefix, p, preset, backends);
        keys.push_back(numberFlag(prefix + "batch", p.batch,
                                  "batch size", 1));
        keys.push_back({prefix + "amx", "<bool>", "AMX tiles",
                        [&](const char *) {
                            p.amx = cfg.getBool(section, "amx");
                        }});
        applyConfigSection(cfg, section, keys);
        if (backends.size() != 1)
            cllm_fatal(prefix, "backend = all: an experiment runs one "
                               "backend");

        const auto model = preset();
        const auto r = exp.runCpu(cpu, backends[0], model, p);
        const auto base = exp.runCpu(cpu, core::Backend::Bare, model, p);
        rows.push_back(
            {section, r.backend, r.timing,
             core::Experiment::compare(r, base).tputOverheadPct});
    }

    if (rows.empty())
        cllm_fatal("no [experiment*] sections in ", argv[1]);

    if (as_json) {
        JsonWriter j(std::cout);
        j.beginObject();
        j.key("machine").value(cpu.name);
        j.key("experiments").beginArray();
        for (const auto &r : rows) {
            j.beginObject();
            j.key("name").value(r.name);
            j.key("backend").value(r.backend);
            j.key("tokens_per_s").value(r.timing.decodeTput);
            j.key("e2e_tokens_per_s").value(r.timing.e2eTput);
            j.key("mean_token_latency_s")
                .value(r.timing.meanTokenLatency);
            j.key("overhead_vs_bare_pct").value(r.overhead_pct);
            j.key("working_set_gb")
                .value(r.timing.workingSetBytes / 1e9);
            j.endObject();
        }
        j.endArray();
        j.endObject();
        std::cout << "\n";
    } else {
        std::cout << "machine: " << cpu.name << "\n";
        Table t({"experiment", "backend", "tput [tok/s]",
                 "latency [ms]", "ovh vs bare"});
        for (const auto &r : rows) {
            t.addRow({r.name, r.backend, fmt(r.timing.decodeTput),
                      fmt(1e3 * r.timing.meanTokenLatency),
                      fmtPct(r.overhead_pct)});
        }
        t.print(std::cout);
    }
    return 0;
}
