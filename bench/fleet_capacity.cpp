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
      const serve::ServerConfig &from_flags)
{
    fleet::NodeTemplate cpu = fleet::cpuTdxNode();
    fleet::NodeTemplate gpu = fleet::cgpuH100Node();
    for (fleet::NodeTemplate *node : {&cpu, &gpu}) {
        if (from_flags.kvMode == serve::KvMode::Paged)
            bench::applyPagedKv(node->server, llm::llama2_7b());
        node->server.chunkedPrefill = from_flags.chunkedPrefill;
        node->server.specDecode = from_flags.specDecode;
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

/** The paged cpu-tdx node of the 4-node comparisons. */
fleet::NodeTemplate
pagedTdxNode()
{
    fleet::NodeTemplate cpu = fleet::cpuTdxNode();
    bench::applyPagedKv(cpu.server, llm::llama2_7b());
    return cpu;
}

/** The 1.2 req/s, 400-request trace the 4-node comparisons replay. */
std::vector<serve::Request>
comparisonTrace()
{
    serve::WorkloadConfig load = bench::serveSeedWorkload();
    load.arrivalRate = 1.2;
    load.numRequests = 400;
    return serve::generateWorkload(load);
}

/** Replay `trace` on a 4-node fleet of `node` under the 2 s TTFT SLO. */
fleet::FleetMetrics
runFourNodes(const fleet::NodeTemplate &node,
             const std::vector<serve::Request> &trace,
             fleet::RouterPolicy policy =
                 fleet::RouterPolicy::LeastOutstanding)
{
    fleet::FleetConfig cfg;
    cfg.ttftSlo = 2.0;
    cfg.policy = policy;
    cfg.initialNodes = {0, 0, 0, 0};
    return fleet::FleetSimulator(cfg, {node}).run(trace);
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
prefixComparison(serve::PrefixMode mode, const serve::SharedPrefixMix &mix)
{
    std::cout << "--- prefix caching: shared-system-prompt mix on a "
                 "4-node TDX fleet ---\n";
    std::cout << "sharing scope " << serve::kPrefixModeNames.name(mode)
              << "; " << mix.tenants << " tenants, "
              << mix.prefixLen << "-token shared prefixes, "
              << fmtPct(100.0 * mix.sharedFraction)
              << " of requests shared\n\n";

    const fleet::NodeTemplate cpu = pagedTdxNode();
    std::vector<serve::Request> trace = comparisonTrace();
    serve::applySharedPrefixMix(trace, mix);

    // Per-node cache budget sized below the distinct-prompt working
    // set (tenants x prompts/tenant prefixes). Scatter routing makes
    // every node try to hold every prompt inside that budget, while
    // affinity routing needs only its resident share per node — the
    // difference between the two cached-token columns is what the
    // routing policy is worth.
    const std::uint64_t bt = cpu.server.kvBlockTokens;
    const std::uint64_t prompt_blocks =
        (mix.prefixLen + bt - 1) / bt;
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
            node.server.prefixMode = mode;
            node.server.prefix.maxBlocks = budget;
        }
        const fleet::FleetMetrics m = runFourNodes(node, trace, v.policy);
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
chunkedComparison(const serve::ChunkedPrefillPolicy &chunk)
{
    std::cout << "--- chunked prefill: "
              << serve::kChunkModeNames.name(chunk.mode) << "-priority "
              << chunk.chunkTokens
              << "-token slices on a 4-node TDX fleet ---\n\n";

    const fleet::NodeTemplate cpu = pagedTdxNode();
    const std::vector<serve::Request> trace = comparisonTrace();

    Table t({"schedule", "max step pf", "TTFT p99 [s]",
             "ITL p99 [ms]", "tok/s", "$/1k tok"});
    for (bool chunked : {false, true}) {
        fleet::NodeTemplate node = cpu;
        if (chunked)
            node.server.chunkedPrefill = chunk;
        const fleet::FleetMetrics m = runFourNodes(node, trace);
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
specComparison(const serve::SpecDecodePolicy &spec)
{
    std::cout << "--- speculative decoding: k=" << spec.draftTokens
              << " drafts (cost ratio " << fmt(spec.draftCostRatio, 2)
              << ", acceptance " << fmt(spec.acceptProb, 2)
              << ") on a 4-node TDX fleet ---\n\n";

    const fleet::NodeTemplate cpu = pagedTdxNode();
    const std::vector<serve::Request> trace = comparisonTrace();

    Table t({"variant", "verify steps", "mean acc len",
             "ITL p99 [ms]", "tok/s", "$/1k tok"});
    for (bool on : {false, true}) {
        fleet::NodeTemplate node = cpu;
        if (on)
            node.server.specDecode = spec;
        const fleet::FleetMetrics m = runFourNodes(node, trace);
        t.addRow({on ? "speculative" : "autoregressive",
                  on ? fmtInt(m.specVerifySteps) : std::string("-"),
                  on ? fmt(serve::specMeanAcceptedLen(m), 2)
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
    serve::ServerConfig from_flags; // node policies the flags set
    serve::SharedPrefixMix mix;
    bench::ObsOptions opt;
    const Flags flags = concatFlags({
        {
            choiceFlag("--kv", from_flags.kvMode, serve::kKvModeNames,
                       "KV discipline on every node of the sweep: "
                       "whole-request block reservation or headroom "
                       "admission with recompute preemption"),
            choiceFlag("--prefix", from_flags.prefixMode,
                       serve::kPrefixModeNames,
                       "sharing scope of the prefix-caching comparison "
                       "on a paged 4-node TDX fleet; off skips it"),
        },
        bench::prefixMixFlags(mix),
        bench::chunkFlags(from_flags.chunkedPrefill),
        bench::specFlags(from_flags.specDecode),
        bench::draftFlags(from_flags.specDecode),
        bench::obsFlags(opt),
    });
    parseFlags(
        "fleet_capacity",
        "Sizes CPU-TDX, cGPU and mixed cost-aware fleets to the TTFT SLO\n"
        "across offered loads and reports $/1k tokens per composition.\n"
        "--prefix, --chunk and --spec each add a 4-node TDX comparison.",
        flags, argc, argv);

    bench::banner(
        "Fleet capacity", "cost crossover as fleet composition",
        "CPU TEEs cheapest at low utilisation; GPU-CC amortises at "
        "high rates (Figs. 12-13 at fleet scale)");
    const serve::ChunkedPrefillPolicy &chunk = from_flags.chunkedPrefill;
    const serve::SpecDecodePolicy &spec = from_flags.specDecode;
    if (from_flags.kvMode == serve::KvMode::Paged)
        std::cout << "KV discipline: paged (headroom admission, "
                     "recompute preemption)\n\n";
    if (chunk.mode != serve::ChunkMode::Off)
        std::cout << "chunked prefill: "
                  << serve::kChunkModeNames.name(chunk.mode)
                  << " priority, " << chunk.chunkTokens
                  << "-token slices\n\n";
    if (spec.enabled)
        std::cout << "speculative decoding: k=" << spec.draftTokens
                  << " drafts, cost ratio "
                  << fmt(spec.draftCostRatio, 2) << ", acceptance "
                  << fmt(spec.acceptProb, 2) << "\n\n";

    const std::vector<double> rates = {0.25, 0.5, 1.0, 2.0,
                                       4.0, 8.0};
    std::cout << "--- paper SLO: TTFT 2 s ---\n";
    sweep(2.0, rates, from_flags);
    std::cout << "--- tightened SLO: TTFT 0.5 s (crossover moves "
                 "toward the GPU) ---\n";
    sweep(0.5, rates, from_flags);

    if (from_flags.prefixMode != serve::PrefixMode::Off)
        prefixComparison(from_flags.prefixMode, mix);

    if (chunk.mode != serve::ChunkMode::Off)
        chunkedComparison(chunk);

    if (spec.enabled)
        specComparison(spec);

    if (opt.trace)
        traceRepresentativeRun(opt);
    bench::writeMetricsSnapshot(opt.metricsOut);
    return 0;
}
