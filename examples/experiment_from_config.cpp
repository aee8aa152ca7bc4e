/**
 * @file
 * Config-driven experiment runner: describe a reproduction as an INI
 * file (see the configs directory) instead of C++. Each `[experiment:...]`
 * section is one run; results print as a table or, with --json, as a
 * machine-readable document for plotting.
 *
 * Usage: experiment_from_config <config.ini> [--json]
 */

#include <fstream>
#include <iostream>

#include "core/experiment.hh"
#include "util/config.hh"
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

    core::Experiment exp;
    const hw::CpuSpec cpu =
        hw::kCpuPresets.parse(cfg.getString("machine", "name", "emr1"))();

    struct Row
    {
        std::string name, backend;
        llm::TimingResult timing;
        double overhead_pct;
    };
    std::vector<Row> rows;

    for (const std::string &section : cfg.sections()) {
        if (section.rfind("experiment", 0) != 0)
            continue;
        llm::RunParams p;
        p.batch = static_cast<unsigned>(
            cfg.getInt(section, "batch", 1));
        p.beam =
            static_cast<unsigned>(cfg.getInt(section, "beam", 1));
        p.inLen = static_cast<unsigned>(
            cfg.getInt(section, "input", 1024));
        p.outLen = static_cast<unsigned>(
            cfg.getInt(section, "output", 128));
        p.sockets = static_cast<unsigned>(
            cfg.getInt(section, "sockets", 1));
        p.cores =
            static_cast<unsigned>(cfg.getInt(section, "cores", 0));
        p.dtype =
            hw::kDtypeNames.parse(cfg.getString(section, "dtype", "bf16"));
        p.amx = cfg.getBool(section, "amx", true);

        const auto model = llm::kModelPresets.parse(
            cfg.getString(section, "model", "7b"))();
        const auto backend = core::kBackendNames.parse(
            cfg.getString(section, "backend", "tdx"));

        const auto r = exp.runCpu(cpu, backend, model, p);
        const auto base =
            exp.runCpu(cpu, core::Backend::Bare, model, p);
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
