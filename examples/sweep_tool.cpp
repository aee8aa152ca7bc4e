/**
 * @file
 * cllm sweep tool: a small CLI over the public API so deployments can
 * be explored without writing C++. Prints one row per configuration,
 * optionally as CSV.
 *
 * Usage:
 *   sweep_tool [--model 7b|13b|70b|llama3|gptj|falcon]
 *              [--machine emr1|emr2|spr]
 *              [--backend bare|vm|vmth|vmnb|sgx|tdx|all]
 *              [--dtype fp32|bf16|int8] [--batch N[,N...]]
 *              [--input N] [--output N] [--beam N]
 *              [--sockets N] [--cores N] [--no-amx] [--csv]
 */

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "util/config.hh"
#include "util/logging.hh"
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

llm::ModelConfig
modelByName(const std::string &name)
{
    if (name == "7b")
        return llm::llama2_7b();
    if (name == "13b")
        return llm::llama2_13b();
    if (name == "70b")
        return llm::llama2_70b();
    if (name == "llama3")
        return llm::llama3_8b();
    if (name == "gptj")
        return llm::gptj_6b();
    if (name == "falcon")
        return llm::falcon_7b();
    cllm_fatal("unknown model '", name,
               "' (7b|13b|70b|llama3|gptj|falcon)");
}

hw::CpuSpec
machineByName(const std::string &name)
{
    if (name == "emr1")
        return hw::emr1();
    if (name == "emr2")
        return hw::emr2();
    if (name == "spr")
        return hw::spr();
    cllm_fatal("unknown machine '", name, "' (emr1|emr2|spr)");
}

hw::Dtype
dtypeByName(const std::string &name)
{
    if (name == "fp32")
        return hw::Dtype::Fp32;
    if (name == "bf16")
        return hw::Dtype::Bf16;
    if (name == "int8")
        return hw::Dtype::Int8;
    cllm_fatal("unknown dtype '", name, "' (fp32|bf16|int8)");
}

std::vector<core::Backend>
backendsByName(const std::string &name)
{
    if (name == "bare")
        return {core::Backend::Bare};
    if (name == "vm")
        return {core::Backend::Vm};
    if (name == "vmth")
        return {core::Backend::VmTh};
    if (name == "vmnb")
        return {core::Backend::VmNb};
    if (name == "sgx")
        return {core::Backend::Sgx};
    if (name == "tdx")
        return {core::Backend::Tdx};
    if (name == "all") {
        return {core::Backend::Bare, core::Backend::Vm,
                core::Backend::Sgx, core::Backend::Tdx};
    }
    cllm_fatal("unknown backend '", name, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model_name = "7b", machine_name = "emr1";
    std::string backend_name = "all", dtype_name = "bf16";
    std::vector<unsigned> batches = {1};
    unsigned in_len = 1024, out_len = 128, beam = 1;
    unsigned sockets = 1, cores = 0;
    bool amx = true, csv = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                cllm_fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--model")
            model_name = next();
        else if (arg == "--machine")
            machine_name = next();
        else if (arg == "--backend")
            backend_name = next();
        else if (arg == "--dtype")
            dtype_name = next();
        else if (arg == "--batch")
            batches = parseList(next());
        else if (arg == "--input")
            in_len = parseNumber<unsigned>(arg, next(), 1);
        else if (arg == "--output")
            out_len = parseNumber<unsigned>(arg, next(), 1);
        else if (arg == "--beam")
            beam = parseNumber<unsigned>(arg, next(), 1);
        else if (arg == "--sockets")
            sockets = parseNumber<unsigned>(arg, next(), 1);
        else if (arg == "--cores")
            cores = parseNumber<unsigned>(arg, next());
        else if (arg == "--no-amx")
            amx = false;
        else if (arg == "--csv")
            csv = true;
        else if (arg == "--help" || arg == "-h") {
            std::cout << "see the file header for usage\n";
            return 0;
        } else {
            cllm_fatal("unknown argument '", arg, "'");
        }
    }

    const llm::ModelConfig model = modelByName(model_name);
    const hw::CpuSpec cpu = machineByName(machine_name);
    const auto backends = backendsByName(backend_name);

    core::Experiment exp;
    Table t({"backend", "batch", "tput [tok/s]", "e2e [tok/s]",
             "latency [ms/tok]", "overhead vs bare"});
    for (unsigned batch : batches) {
        llm::RunParams p;
        p.batch = batch;
        p.beam = beam;
        p.inLen = in_len;
        p.outLen = out_len;
        p.dtype = dtypeByName(dtype_name);
        p.amx = amx;
        p.sockets = sockets;
        p.cores = cores;
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
              << dtype_name << (amx ? " (AMX)" : " (no AMX)") << "\n";
    if (csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    return 0;
}
