/**
 * @file
 * Confidential-serving capacity planner, applying the paper's cost
 * methodology (Section V-D): given a workload shape (batch size,
 * input/output lengths), sweep core counts on CPU TEEs and compare
 * against a confidential H100, reporting $/1M tokens and the cheapest
 * compliant deployment — Insight 11 in executable form.
 */

#include <iostream>
#include <limits>
#include <string>

#include "core/experiment.hh"
#include "util/config.hh"
#include "util/table.hh"

using namespace cllm;

int
main(int argc, char **argv)
{
    unsigned batch = 4;
    unsigned in_len = 128;
    if (argc > 1)
        batch = parseNumber<unsigned>("batch", argv[1], 1);
    if (argc > 2)
        in_len = parseNumber<unsigned>("in_len", argv[2], 1);

    core::Experiment exp;
    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const cost::CpuPricing cpu_price = cost::gcpSpotUsEast1();
    const cost::GpuPricing gpu_price = cost::cgpuH100();
    const double mem_gb = 128.0;

    std::cout << "Planning for Llama2-7B bf16, batch " << batch
              << ", input " << in_len << ", output 128\n\n";

    Table t({"deployment", "tok/s", "$ / 1M tokens", "secure"});

    double best_cost = std::numeric_limits<double>::infinity();
    std::string best;

    for (unsigned cores : {8u, 16u, 24u, 32u, 48u}) {
        if (cores > cpu.coresPerSocket)
            continue;
        llm::RunParams p;
        p.batch = batch;
        p.inLen = in_len;
        p.outLen = 128;
        p.sockets = 1;
        p.cores = cores;
        const auto r = exp.runCpu(cpu, core::Backend::Tdx, model, p);
        const double usd = core::Experiment::cpuCostPerMTokens(
            r, cpu_price, cores, mem_gb);
        const std::string name =
            "TDX " + std::to_string(cores) + " vCPU";
        t.addRow({name, fmt(r.timing.e2eTput), fmt(usd, 3), "yes"});
        if (usd < best_cost) {
            best_cost = usd;
            best = name;
        }
    }

    llm::GpuRunParams g;
    g.batch = batch;
    g.inLen = in_len;
    g.outLen = 128;
    g.confidential = true;
    const auto gr = exp.runGpu(hw::h100Nvl(), model, g);
    const double gpu_usd =
        core::Experiment::gpuCostPerMTokens(gr, gpu_price);
    t.addRow({"cGPU H100", fmt(gr.timing.e2eTput), fmt(gpu_usd, 3),
              "partial (HBM clear)"});
    if (gpu_usd < best_cost) {
        best_cost = gpu_usd;
        best = "cGPU H100";
    }

    t.print(std::cout);
    std::cout << "\ncheapest: " << best << " at $" << fmt(best_cost, 3)
              << " per 1M tokens\n";
    return 0;
}
