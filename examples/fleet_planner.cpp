/**
 * @file
 * Fleet planner: find the cheapest confidential fleet sustaining a
 * target request rate under a p99 TTFT bound.
 *
 * Enumerates candidate compositions over the two paper archetypes —
 * pure CPU-TDX fleets, pure confidential-H100 fleets, and mixed
 * fleets with a cost-aware router spilling from TDX to the cGPU —
 * replays the same seeded trace through each, and keeps the feasible
 * fleet with the lowest $/1k generated tokens.
 *
 *   fleet_planner [rate_req_s] [ttft_p99_s]   (defaults 1.5, 2.0)
 */

#include <iostream>
#include <string>
#include <vector>

#include "fleet/presets.hh"
#include "fleet/simulator.hh"
#include "util/config.hh"
#include "util/table.hh"

using namespace cllm;

namespace {

struct Candidate
{
    std::string name;
    fleet::FleetConfig cfg;
    std::vector<fleet::NodeTemplate> templates;
};

} // namespace

int
main(int argc, char **argv)
{
    const double rate =
        argc > 1 ? parseNumber<double>("rate_req_s", argv[1]) : 1.5;
    const double ttft_p99 =
        argc > 2 ? parseNumber<double>("ttft_p99_s", argv[2]) : 2.0;
    if (rate <= 0.0 || ttft_p99 <= 0.0) {
        std::cerr << "usage: fleet_planner [rate_req_s] "
                     "[ttft_p99_s]\n";
        return 1;
    }

    std::cout << "=== Fleet planner: cheapest confidential fleet for "
              << fmt(rate, 2) << " req/s at p99 TTFT <= "
              << fmt(ttft_p99, 2) << " s ===\n\n";

    const fleet::NodeTemplate cpu = fleet::cpuTdxNode();
    const fleet::NodeTemplate gpu = fleet::cgpuH100Node();

    serve::WorkloadConfig load;
    load.arrivalRate = rate;
    load.numRequests = static_cast<std::size_t>(
        std::min(1500.0, std::max(250.0, 300.0 * rate)));
    load.meanInLen = 512;
    load.meanOutLen = 128;
    load.seed = 99;
    const auto trace = serve::generateWorkload(load);

    std::vector<Candidate> candidates;
    for (std::size_t n = 1; n <= 24; ++n) {
        Candidate c;
        c.name = std::to_string(n) + "x " + cpu.name;
        c.templates = {cpu};
        c.cfg.policy = fleet::RouterPolicy::LeastOutstanding;
        c.cfg.initialNodes.assign(n, 0);
        candidates.push_back(std::move(c));
    }
    for (std::size_t n = 1; n <= 3; ++n) {
        Candidate c;
        c.name = std::to_string(n) + "x " + gpu.name;
        c.templates = {gpu};
        c.cfg.policy = fleet::RouterPolicy::LeastOutstanding;
        c.cfg.initialNodes.assign(n, 0);
        candidates.push_back(std::move(c));
    }
    for (std::size_t n = 1; n <= 12; ++n) {
        Candidate c;
        c.name = std::to_string(n) + "x " + cpu.name + " + 1x " +
                 gpu.name;
        c.templates = {cpu, gpu};
        c.cfg.policy = fleet::RouterPolicy::CostAware;
        c.cfg.initialNodes.assign(n, 0);
        c.cfg.initialNodes.push_back(1);
        candidates.push_back(std::move(c));
    }

    Table t({"fleet", "$/hr", "$/1k tok", "TTFT p99 [s]", "SLO",
             "feasible"});
    int best = -1;
    double best_usd = 0.0;
    std::vector<fleet::FleetMetrics> results;
    for (auto &c : candidates) {
        c.cfg.ttftSlo = ttft_p99;
        fleet::FleetSimulator sim(c.cfg, c.templates);
        results.push_back(sim.run(trace));
        const fleet::FleetMetrics &m = results.back();
        const bool ok = m.ttft.p99 <= ttft_p99 && m.backlogged == 0;
        if (ok && (best < 0 || m.costPer1kTokens < best_usd)) {
            best = static_cast<int>(results.size()) - 1;
            best_usd = m.costPer1kTokens;
        }
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const fleet::FleetMetrics &m = results[i];
        const bool ok = m.ttft.p99 <= ttft_p99 && m.backlogged == 0;
        // Keep the table readable: show feasible fleets, the cheapest
        // infeasible of each family stays implicit.
        if (!ok && m.ttft.p99 > 4.0 * ttft_p99)
            continue;
        const double hourly =
            m.makespan > 0.0
                ? m.totalCostUsd / m.makespan * 3600.0
                : 0.0;
        t.addRow({candidates[i].name, fmt(hourly, 3),
                  fmt(m.costPer1kTokens, 4), fmt(m.ttft.p99, 2),
                  fmtPct(100.0 * m.sloAttainment),
                  static_cast<int>(i) == best
                      ? "<== cheapest feasible"
                      : (ok ? "yes" : "no")});
    }
    t.print(std::cout);

    if (best < 0) {
        std::cout << "\nno candidate fleet met the target; raise the "
                     "bound or extend the search.\n";
        return 2;
    }
    const fleet::FleetMetrics &m =
        results[static_cast<std::size_t>(best)];
    std::cout << "\ncheapest feasible fleet: "
              << candidates[static_cast<std::size_t>(best)].name
              << " at $" << fmt(m.costPer1kTokens, 4)
              << " per 1k generated tokens (p99 TTFT "
              << fmt(m.ttft.p99, 2) << " s, SLO attainment "
              << fmtPct(100.0 * m.sloAttainment) << ")\n";
    return 0;
}
