/**
 * @file
 * Fleet-composition cost sweep: the Figs. 12-13 cost crossover
 * re-asked at fleet scale. For a range of offered loads, size a pure
 * CPU-TDX fleet, a pure confidential-GPU fleet, and a mixed fleet
 * (cost-aware router spilling from cheap TDX nodes to cGPU nodes on
 * projected TTFT breach), replay the same seeded trace through each,
 * and report $/1k generated tokens plus p99 TTFT and SLO attainment.
 *
 * Expected shape: at low request rates the CPU-TEE fleet is cheapest
 * (a mostly idle cGPU instance burns ~24x the $/hr of a TDX slice);
 * as load grows the GPU's throughput advantage amortises its price
 * and the crossover appears, and tightening the TTFT target moves the
 * crossover toward lower rates because queueing on CPU prefill is
 * what breaches first.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cost/pricing.hh"
#include "fleet/presets.hh"
#include "fleet/simulator.hh"
#include "obs/chrome_export.hh"
#include "obs/trace.hh"
#include "util/table.hh"

using namespace cllm;

namespace {

void
usage(std::ostream &os)
{
    os << "usage: fleet_capacity [--kv reserved|paged] "
          "[--prefix <mode>] [--chunk <mode>] [--spec] "
          "[--trace [path]] [--metrics-out path]\n\n"
          "  --kv mode           KV discipline on every node: "
          "'reserved' (default,\n"
          "                      whole-request block reservation) or "
          "'paged'\n"
          "                      (headroom admission with recompute "
          "preemption)\n"
       << bench::prefixUsage() << bench::chunkUsage()
       << bench::specUsage() << bench::obsUsage();
}

/** Sustainable request rate of one node at full batch, from its own
 *  step model: decode tokens/s divided by the mean output length. */
double
nodeReqRate(const fleet::NodeTemplate &t,
            const serve::WorkloadConfig &load)
{
    const auto step = t.makeStep();
    const double step_s = step->decodeStep(
        t.server.maxBatch, load.meanInLen + load.meanOutLen / 2);
    const double tok_s =
        static_cast<double>(t.server.maxBatch) / step_s;
    return tok_s / static_cast<double>(load.meanOutLen);
}

struct SizedRun
{
    fleet::FleetMetrics m;
    std::size_t nodes = 0;
    bool eligible = false;
};

/**
 * Smallest fleet of the given composition meeting the SLO bar, found
 * by growing the CPU node count (a pure GPU fleet grows GPU nodes).
 * Returns the last attempt when even the cap cannot meet the bar.
 */
SizedRun
sizeFleet(fleet::FleetConfig cfg,
          const std::vector<fleet::NodeTemplate> &templates,
          std::size_t grow_template,
          const std::vector<serve::Request> &trace)
{
    constexpr std::size_t kMaxNodes = 32;
    SizedRun best;
    for (;;) {
        fleet::FleetSimulator sim(cfg, templates);
        best.m = sim.run(trace);
        best.nodes = cfg.initialNodes.size();
        best.eligible = best.m.sloAttainment >= 0.9;
        if (best.eligible || best.nodes >= kMaxNodes)
            return best;
        cfg.initialNodes.push_back(grow_template);
    }
}

void
sweep(double ttft_slo, const std::vector<double> &rates,
      serve::KvMode kv_mode, const bench::ChunkOptions &copt,
      const bench::SpecOptions &sopt)
{
    fleet::NodeTemplate cpu = fleet::cpuTdxNode();
    fleet::NodeTemplate gpu = fleet::cgpuH100Node();
    if (kv_mode == serve::KvMode::Paged) {
        const llm::ModelConfig model = llm::llama2_7b();
        bench::applyPagedKv(cpu.server, model);
        bench::applyPagedKv(gpu.server, model);
    }
    bench::applyChunkedPrefill(cpu.server, copt);
    bench::applyChunkedPrefill(gpu.server, copt);
    if (sopt.enabled) {
        bench::applySpecDecode(cpu.server, sopt);
        bench::applySpecDecode(gpu.server, sopt);
    }

    serve::WorkloadConfig base = bench::serveSeedWorkload();
    const double cpu_rate = nodeReqRate(cpu, base);
    const double gpu_rate = nodeReqRate(gpu, base);
    std::cout << "per-node decode capacity: " << cpu.name << " "
              << fmt(cpu_rate, 2) << " req/s ($"
              << fmt(cpu.pricePerHour, 3) << "/hr), " << gpu.name
              << " " << fmt(gpu_rate, 2) << " req/s ($"
              << fmt(gpu.pricePerHour, 2) << "/hr)\n";
    std::cout << "TTFT SLO " << fmt(ttft_slo, 2) << " s; each fleet "
                 "grown until attainment >= 90% (cap 32 nodes)\n\n";

    Table t({"rate [req/s]", "fleet", "nodes", "$/1k tok",
             "TTFT p99 [s]", "SLO", "cheapest@SLO"});
    // Every rate point replays its own seeded trace through freshly
    // constructed simulators, so the grid fans out across cores; row
    // order (and content — the traces are seed-deterministic) matches
    // the serial sweep exactly.
    const auto per_rate = bench::runGrid<std::vector<SizedRun>>(
        rates.size(), [&](std::size_t gi) {
            serve::WorkloadConfig load = base;
            load.arrivalRate = rates[gi];
            load.numRequests = static_cast<std::size_t>(std::min(
                1200.0, std::max(200.0, 240.0 * rates[gi])));
            const auto trace = serve::generateWorkload(load);

            std::vector<SizedRun> results;
            {
                fleet::FleetConfig cfg;
                cfg.ttftSlo = ttft_slo;
                cfg.policy = fleet::RouterPolicy::LeastOutstanding;
                cfg.initialNodes = {0};
                results.push_back(sizeFleet(cfg, {cpu}, 0, trace));
            }
            {
                fleet::FleetConfig cfg;
                cfg.ttftSlo = ttft_slo;
                cfg.policy = fleet::RouterPolicy::LeastOutstanding;
                cfg.initialNodes = {0};
                results.push_back(sizeFleet(cfg, {gpu}, 0, trace));
            }
            {
                // One cGPU spill target plus as many cheap TDX nodes
                // as the SLO demands, under the cost-aware router.
                fleet::FleetConfig cfg;
                cfg.ttftSlo = ttft_slo;
                cfg.policy = fleet::RouterPolicy::CostAware;
                cfg.initialNodes = {0, 1};
                results.push_back(
                    sizeFleet(cfg, {cpu, gpu}, 0, trace));
            }
            return results;
        });

    const std::vector<std::string> names = {
        "cpu-tdx only", "cgpu only", "mixed cost-aware"};
    for (std::size_t r = 0; r < rates.size(); ++r) {
        const auto &results = per_rate[r];
        int best = -1;
        for (std::size_t i = 0; i < results.size(); ++i)
            if (results[i].eligible &&
                (best < 0 ||
                 results[i].m.costPer1kTokens <
                     results[static_cast<std::size_t>(best)]
                         .m.costPer1kTokens))
                best = static_cast<int>(i);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const fleet::FleetMetrics &m = results[i].m;
            t.addRow({fmt(rates[r], 2), names[i],
                      fmtInt(results[i].nodes),
                      fmt(m.costPer1kTokens, 4), fmt(m.ttft.p99, 2),
                      fmtPct(100.0 * m.sloAttainment),
                      static_cast<int>(i) == best ? "<== cheapest"
                                                  : ""});
        }
    }
    t.print(std::cout);
    std::cout << "\n";
}

/**
 * Prefix-caching comparison on a homogeneous 4-node TDX fleet: the
 * same shared-system-prompt trace replayed with caching off, caching
 * on under plain load balancing (hits only when repeats happen to
 * land together), and caching on under the prefix-affinity router
 * (repeat prefixes stick to the node holding their KV). Reports hit
 * rates and the TTFT / $/1k-token deltas the routing choice buys.
 */
void
prefixComparison(const bench::PrefixOptions &popt)
{
    std::cout << "--- prefix caching: shared-system-prompt mix on a "
                 "4-node TDX fleet ---\n";
    std::cout << "sharing scope " << serve::prefixModeName(popt.mode)
              << "; " << popt.mix.tenants << " tenants, "
              << popt.mix.prefixLen << "-token shared prefixes, "
              << fmtPct(100.0 * popt.mix.sharedFraction)
              << " of requests shared\n\n";

    const llm::ModelConfig model = llm::llama2_7b();
    fleet::NodeTemplate cpu = fleet::cpuTdxNode();
    bench::applyPagedKv(cpu.server, model);

    serve::WorkloadConfig load = bench::serveSeedWorkload();
    load.arrivalRate = 1.2;
    load.numRequests = 400;
    std::vector<serve::Request> trace = serve::generateWorkload(load);
    serve::applySharedPrefixMix(trace, popt.mix);

    // Per-node cache budget sized below the distinct-prompt working
    // set (tenants x prompts/tenant prefixes). Scatter routing makes
    // every node try to hold every prompt inside that budget, while
    // affinity routing needs only its resident share per node — the
    // difference between the two cached-token columns is what the
    // routing policy is worth.
    const std::uint64_t bt = cpu.server.kvBlockTokens;
    const std::uint64_t prompt_blocks =
        (popt.mix.prefixLen + bt - 1) / bt;
    const std::uint64_t budget = 3 * prompt_blocks;

    struct Variant
    {
        const char *name;
        bool prefixOn;
        fleet::RouterPolicy policy;
    };
    const Variant variants[] = {
        {"off / least-outstanding", false,
         fleet::RouterPolicy::LeastOutstanding},
        {"on / least-outstanding", true,
         fleet::RouterPolicy::LeastOutstanding},
        {"on / prefix-affinity", true,
         fleet::RouterPolicy::PrefixAffinity},
    };

    Table t({"variant", "hit rate", "prefill tok", "TTFT p50 [s]",
             "TTFT p99 [s]", "$/1k tok", "vs off"});
    double off_per_1k = 0.0;
    for (const Variant &v : variants) {
        fleet::NodeTemplate node = cpu;
        if (v.prefixOn) {
            node.server.prefixMode = popt.mode;
            node.server.prefix.maxBlocks = budget;
        }
        fleet::FleetConfig cfg;
        cfg.ttftSlo = 2.0;
        cfg.policy = v.policy;
        cfg.initialNodes = {0, 0, 0, 0};
        fleet::FleetSimulator sim(cfg, {node});
        const fleet::FleetMetrics m = sim.run(trace);
        if (!v.prefixOn)
            off_per_1k = m.costPer1kTokens;
        t.addRow(
            {v.name,
             m.prefixEnabled ? fmtPct(100.0 * serve::prefixHitRate(m))
                             : std::string("-"),
             fmtInt(m.prefillTokensComputed), fmt(m.ttft.p50, 3),
             fmt(m.ttft.p99, 3), fmt(m.costPer1kTokens, 4),
             v.prefixOn ? fmt(off_per_1k - m.costPer1kTokens, 6)
                        : std::string("-")});
    }
    t.print(std::cout);
    std::cout << "\n";
}

/**
 * Chunked-prefill comparison on a homogeneous 4-node TDX fleet: the
 * same trace replayed monolithic and chunked, so the fleet-level ITL
 * and max-step-prefill aggregation (and the router's chunk-aware TTFT
 * projection) is exercised end to end.
 */
void
chunkedComparison(const bench::ChunkOptions &copt)
{
    std::cout << "--- chunked prefill: "
              << serve::chunkModeName(copt.mode) << "-priority "
              << copt.chunkTokens
              << "-token slices on a 4-node TDX fleet ---\n\n";

    const llm::ModelConfig model = llm::llama2_7b();
    fleet::NodeTemplate cpu = fleet::cpuTdxNode();
    bench::applyPagedKv(cpu.server, model);

    serve::WorkloadConfig load = bench::serveSeedWorkload();
    load.arrivalRate = 1.2;
    load.numRequests = 400;
    const std::vector<serve::Request> trace =
        serve::generateWorkload(load);

    Table t({"schedule", "max step pf", "TTFT p99 [s]",
             "ITL p99 [ms]", "tok/s", "$/1k tok"});
    for (bool chunked : {false, true}) {
        fleet::NodeTemplate node = cpu;
        if (chunked)
            bench::applyChunkedPrefill(node.server, copt);
        fleet::FleetConfig cfg;
        cfg.ttftSlo = 2.0;
        cfg.policy = fleet::RouterPolicy::LeastOutstanding;
        cfg.initialNodes = {0, 0, 0, 0};
        fleet::FleetSimulator sim(cfg, {node});
        const fleet::FleetMetrics m = sim.run(trace);
        t.addRow({chunked ? "chunked" : "monolithic",
                  fmtInt(m.maxStepPrefillTokens), fmt(m.ttft.p99, 3),
                  chunked ? fmt(1e3 * m.itl.p99, 1)
                          : std::string("-"),
                  fmt(m.tokensPerSecond),
                  fmt(m.costPer1kTokens, 4)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

/**
 * Speculative-decoding comparison on a homogeneous 4-node TDX fleet:
 * the same trace replayed with speculation off and on, so the
 * fleet-level accepted-length rollups (and the router's spec-aware
 * decode estimate) are exercised end to end.
 */
void
specComparison(const bench::SpecOptions &sopt)
{
    std::cout << "--- speculative decoding: k=" << sopt.draftTokens
              << " drafts (cost ratio " << fmt(sopt.draftCostRatio, 2)
              << ", acceptance " << fmt(sopt.acceptProb, 2)
              << ") on a 4-node TDX fleet ---\n\n";

    const llm::ModelConfig model = llm::llama2_7b();
    fleet::NodeTemplate cpu = fleet::cpuTdxNode();
    bench::applyPagedKv(cpu.server, model);

    serve::WorkloadConfig load = bench::serveSeedWorkload();
    load.arrivalRate = 1.2;
    load.numRequests = 400;
    const std::vector<serve::Request> trace =
        serve::generateWorkload(load);

    Table t({"variant", "verify steps", "mean acc len",
             "ITL p99 [ms]", "tok/s", "$/1k tok"});
    for (bool spec : {false, true}) {
        fleet::NodeTemplate node = cpu;
        if (spec)
            bench::applySpecDecode(node.server, sopt);
        fleet::FleetConfig cfg;
        cfg.ttftSlo = 2.0;
        cfg.policy = fleet::RouterPolicy::LeastOutstanding;
        cfg.initialNodes = {0, 0, 0, 0};
        fleet::FleetSimulator sim(cfg, {node});
        const fleet::FleetMetrics m = sim.run(trace);
        t.addRow({spec ? "speculative" : "autoregressive",
                  spec ? fmtInt(m.specVerifySteps) : std::string("-"),
                  spec ? fmt(serve::specMeanAcceptedLen(m), 2)
                       : std::string("-"),
                  fmt(1e3 * m.itl.p99, 1), fmt(m.tokensPerSecond),
                  fmt(m.costPer1kTokens, 4)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

/**
 * Trace one representative scenario: the mixed cost-aware fleet at
 * 1 req/s under the paper SLO. The sweep itself fans out across
 * cores, so the traced run is a separate serial replay — same seeded
 * trace, same configs, deterministic sim-time events.
 */
void
traceRepresentativeRun(const bench::ObsOptions &opt)
{
    serve::WorkloadConfig load = bench::serveSeedWorkload();
    load.arrivalRate = 1.0;
    load.numRequests = 240;

    fleet::FleetConfig cfg;
    cfg.ttftSlo = 2.0;
    cfg.policy = fleet::RouterPolicy::CostAware;
    cfg.initialNodes = {0, 1};

    obs::Tracer tracer(obs::TraceMode::Sim);
    cfg.tracer = &tracer;
    fleet::FleetSimulator sim(
        cfg, {fleet::cpuTdxNode(), fleet::cgpuH100Node()});
    sim.run(serve::generateWorkload(load));

    const std::string out = obs::traceOutputPath(
        opt.tracePath, "fleet_capacity.trace.json");
    obs::writeChromeTraceFile(out, tracer, &obs::Registry::global());
    std::cout << "wrote trace: " << out << " (mixed cost-aware fleet "
              << "at 1 req/s, " << tracer.simEvents().size()
              << " events)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsOptions opt;
    bench::PrefixOptions popt;
    bench::ChunkOptions copt;
    bench::SpecOptions sopt;
    serve::KvMode kv_mode = serve::KvMode::Reserved;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        }
        if (bench::parseKvArg(kv_mode, argc, argv, i))
            continue;
        if (bench::parsePrefixArg(popt, argc, argv, i))
            continue;
        if (bench::parseChunkArg(copt, argc, argv, i))
            continue;
        if (bench::parseSpecArg(sopt, argc, argv, i))
            continue;
        if (bench::parseObsArg(opt, argc, argv, i))
            continue;
        std::cerr << "fleet_capacity: unknown argument '" << argv[i]
                  << "'\n";
        usage(std::cerr);
        return 2;
    }

    bench::banner(
        "Fleet capacity", "cost crossover as fleet composition",
        "CPU TEEs cheapest at low utilisation; GPU-CC amortises at "
        "high rates (Figs. 12-13 at fleet scale)");
    if (kv_mode == serve::KvMode::Paged)
        std::cout << "KV discipline: paged (headroom admission, "
                     "recompute preemption)\n\n";
    if (copt.mode != serve::ChunkMode::Off)
        std::cout << "chunked prefill: "
                  << serve::chunkModeName(copt.mode) << " priority, "
                  << copt.chunkTokens << "-token slices\n\n";
    if (sopt.enabled)
        std::cout << "speculative decoding: k=" << sopt.draftTokens
                  << " drafts, cost ratio "
                  << fmt(sopt.draftCostRatio, 2) << ", acceptance "
                  << fmt(sopt.acceptProb, 2) << "\n\n";

    const std::vector<double> rates = {0.25, 0.5, 1.0, 2.0,
                                       4.0, 8.0};
    std::cout << "--- paper SLO: TTFT 2 s ---\n";
    sweep(2.0, rates, kv_mode, copt, sopt);
    std::cout << "--- tightened SLO: TTFT 0.5 s (crossover moves "
                 "toward the GPU) ---\n";
    sweep(0.5, rates, kv_mode, copt, sopt);

    if (popt.mode != serve::PrefixMode::Off)
        prefixComparison(popt);

    if (copt.mode != serve::ChunkMode::Off)
        chunkedComparison(copt);

    if (sopt.enabled)
        specComparison(sopt);

    if (opt.trace)
        traceRepresentativeRun(opt);
    bench::writeMetricsSnapshot(opt.metricsOut);
    return 0;
}
