/**
 * @file
 * Fleet simulator tests: determinism (same fleet seed → bit-identical
 * FleetMetrics JSON), the split-seed independence property (adding a
 * node changes no other node's fault or workload draws), exact
 * equivalence of a 1-node Null-router fleet with a bare
 * `serve::Server` run, router policy behaviour, autoscaler dynamics,
 * node lifecycle under churn, and golden regressions over a mixed
 * fleet under faults and a churning fleet (`CLLM_REGEN_GOLDEN=1`
 * regenerates).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <variant>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "fleet/presets.hh"
#include "fleet/simulator.hh"
#include "golden_util.hh"
#include "obs/chrome_export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "par/pool.hh"
#include "prefix_victim_ref.hh"
#include "util/json.hh"

using namespace cllm;
using namespace cllm::fleet;

namespace {

fault::FaultScheduleConfig
faultConfig()
{
    fault::FaultScheduleConfig fs;
    fs.horizon = 700.0;
    fs.attestFail = {1.0 / 120.0, 4.0, 0.0};
    fs.enclaveRestart = {1.0 / 250.0, 0.0, 0.0};
    fs.epcStorm = {1.0 / 90.0, 10.0, 1.7};
    fs.kvExhaustion = {1.0 / 150.0, 15.0, 0.5};
    return fs;
}

NodeTemplate
faultyCpuTemplate()
{
    NodeTemplate t = cpuTdxNode();
    t.faults = faultConfig();
    t.server.resilience.requestTimeout = 120.0;
    t.server.resilience.maxRetries = 3;
    t.server.resilience.retryBackoff = 0.5;
    t.server.resilience.shedOnKvPressure = true;
    t.server.resilience.shedThreshold = 0.95;
    t.server.resilience.degradedMaxBatch = 8;
    return t;
}

/** The canonical mixed fleet the determinism and golden tests run:
 *  faulty TDX nodes + one cGPU spill target, cost-aware routing,
 *  autoscaler adding TDX nodes on queue pressure. */
FleetConfig
mixedFleetConfig()
{
    FleetConfig cfg;
    cfg.seed = 42;
    cfg.policy = RouterPolicy::CostAware;
    cfg.ttftSlo = 2.0;
    cfg.initialNodes = {0, 1};
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.intervalSec = 10.0;
    cfg.autoscaler.queueHighPerNode = 4.0;
    cfg.autoscaler.queueLowPerNode = 0.5;
    cfg.autoscaler.drainAfterTicks = 3;
    cfg.autoscaler.minNodes = 2;
    cfg.autoscaler.maxNodes = 6;
    cfg.autoscaler.addTemplate = 0;
    cfg.autoscaler.cooldownSec = 20.0;
    return cfg;
}

std::vector<serve::Request>
burstyTrace(double rate = 2.0, std::size_t n = 300)
{
    serve::WorkloadConfig load = bench::serveSeedWorkload();
    load.process = serve::ArrivalProcess::BurstyOnOff;
    load.arrivalRate = rate;
    load.numRequests = n;
    return serve::generateWorkload(load);
}

/** TDX + cGPU templates with every serving feature on: paged KV
 *  with per-tenant prefix caching, chunked prefill and speculative
 *  decoding, on pools small enough that the cache evicts. */
std::vector<NodeTemplate>
churnTemplates()
{
    NodeTemplate cpu = cpuTdxNode();
    NodeTemplate gpu = cgpuH100Node();
    cpu.server.kvBlocks = 768;
    gpu.server.kvBlocks = 2048;
    for (NodeTemplate *t : {&cpu, &gpu}) {
        serve::ServerConfig &s = t->server;
        bench::applyPagedKv(s, llm::llama2_7b());
        s.prefixMode = serve::PrefixMode::PerTenant;
        s.prefix.maxBlocks = s.kvBlocks / 2;
        s.chunkedPrefill.mode = serve::ChunkMode::DecodePriority;
        s.chunkedPrefill.chunkTokens = 256;
        s.specDecode.enabled = true;
        t->meanInLenHint = 600;
    }
    gpu.provisionDelaySec = 2.0;
    return {cpu, gpu};
}

/** A churning fleet: prefix-affinity routing over two TDX nodes and
 *  one cGPU, with an autoscaler whose short interval and cooldown add
 *  and drain cGPU nodes on most bursts, so a few hundred requests
 *  provision and retire dozens of nodes. Its drain watermark of one
 *  outstanding request per node drains nodes with work in flight. */
FleetConfig
churnFleetConfig()
{
    FleetConfig cfg;
    cfg.seed = 11;
    cfg.policy = RouterPolicy::PrefixAffinity;
    cfg.ttftSlo = 2.0;
    cfg.initialNodes = {0, 0, 1};
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.intervalSec = 1.0;
    cfg.autoscaler.queueHighPerNode = 1.5;
    cfg.autoscaler.queueLowPerNode = 1.0;
    cfg.autoscaler.drainAfterTicks = 1;
    cfg.autoscaler.minNodes = 3;
    cfg.autoscaler.maxNodes = 8;
    cfg.autoscaler.addTemplate = 1;
    cfg.autoscaler.cooldownSec = 2.0;
    return cfg;
}

std::vector<serve::Request>
churnTrace()
{
    serve::WorkloadConfig load;
    load.process = serve::ArrivalProcess::BurstyOnOff;
    load.arrivalRate = 2.0;
    load.numRequests = 600;
    load.meanInLen = 600;
    load.meanOutLen = 48;
    load.lengthSigma = 0.1;
    load.meanOnSec = 2.0;
    load.meanOffSec = 4.0;
    load.seed = 5;
    auto trace = serve::generateWorkload(load);
    serve::SharedPrefixMix mix;
    mix.tenants = 8;
    mix.prefixLen = 512;
    mix.sharedFraction = 0.9;
    serve::applySharedPrefixMix(trace, mix);
    return trace;
}

std::string
fleetJson(const FleetMetrics &m)
{
    std::ostringstream os;
    JsonWriter json(os);
    writeFleetMetrics(json, m);
    return os.str();
}

std::string
serveJson(const serve::ServeMetrics &m)
{
    std::ostringstream os;
    JsonWriter json(os);
    serve::writeMetrics(json, m);
    return os.str();
}

void
flattenFleet(std::map<std::string, double> &out,
             const std::string &prefix, const FleetMetrics &m)
{
    out[prefix + ".submitted"] = static_cast<double>(m.submitted);
    out[prefix + ".completed"] = static_cast<double>(m.completed);
    out[prefix + ".availability"] = m.availability;
    out[prefix + ".makespan"] = m.makespan;
    out[prefix + ".outputTokens"] =
        static_cast<double>(m.outputTokens);
    out[prefix + ".tokensPerSecond"] = m.tokensPerSecond;
    out[prefix + ".ttft.p50"] = m.ttft.p50;
    out[prefix + ".ttft.p99"] = m.ttft.p99;
    out[prefix + ".tpot.p50"] = m.tpot.p50;
    out[prefix + ".tpot.p99"] = m.tpot.p99;
    out[prefix + ".sloAttainment"] = m.sloAttainment;
    out[prefix + ".kvUtilizationPeak"] = m.kvUtilizationPeak;
    out[prefix + ".meanBatchOccupancy"] = m.meanBatchOccupancy;
    out[prefix + ".totalCostUsd"] = m.totalCostUsd;
    out[prefix + ".costPer1kTokens"] = m.costPer1kTokens;
    out[prefix + ".peakNodes"] = static_cast<double>(m.peakNodes);
    out[prefix + ".meanLiveNodes"] = m.meanLiveNodes;
    out[prefix + ".scaleUps"] = static_cast<double>(m.scaleUps);
    out[prefix + ".drains"] = static_cast<double>(m.drains);
    out[prefix + ".backlogged"] = static_cast<double>(m.backlogged);
    out[prefix + ".retries"] = static_cast<double>(m.retries);
    out[prefix + ".shed"] = static_cast<double>(m.shed);
    out[prefix + ".restarts"] = static_cast<double>(m.restarts);
    out[prefix + ".faultDowntime"] = m.faultDowntime;
    for (const NodeSummary &n : m.nodes) {
        const std::string np =
            prefix + ".node" + std::to_string(n.id);
        out[np + ".billedSeconds"] = n.billedSeconds;
        out[np + ".costUsd"] = n.costUsd;
        out[np + ".completed"] =
            static_cast<double>(n.serve.completed);
        out[np + ".tokensPerSecond"] = n.serve.tokensPerSecond;
    }
}

} // namespace

TEST(FleetDeterminism, SameSeedBitIdenticalJson)
{
    const auto trace = burstyTrace();
    const std::vector<NodeTemplate> templates = {faultyCpuTemplate(),
                                                 cgpuH100Node()};
    FleetSimulator a(mixedFleetConfig(), templates);
    FleetSimulator b(mixedFleetConfig(), templates);
    const std::string ja = fleetJson(a.run(trace));
    const std::string jb = fleetJson(b.run(trace));
    EXPECT_EQ(ja, jb);
    EXPECT_GT(ja.size(), 100u);
}

TEST(FleetDeterminism, DifferentSeedDifferentFaultDraws)
{
    const auto trace = burstyTrace();
    const std::vector<NodeTemplate> templates = {faultyCpuTemplate(),
                                                 cgpuH100Node()};
    FleetConfig cfg = mixedFleetConfig();
    FleetSimulator a(cfg, templates);
    cfg.seed = 43;
    FleetSimulator b(cfg, templates);
    EXPECT_NE(fleetJson(a.run(trace)), fleetJson(b.run(trace)));
}

// The simulator resets its node state at the top of every run, so
// reusing one simulator is indistinguishable from building a new one.
TEST(FleetDeterminism, SecondRunOnSameSimulatorMatchesFresh)
{
    const auto trace = churnTrace();
    FleetSimulator fresh(churnFleetConfig(), churnTemplates());
    const std::string want = fleetJson(fresh.run(trace));
    FleetSimulator reused(churnFleetConfig(), churnTemplates());
    EXPECT_EQ(fleetJson(reused.run(trace)), want);
    EXPECT_EQ(fleetJson(reused.run(trace)), want);
}

// A drained node leaves the event loop for good: once decommissioned,
// its engine never runs again, so nothing on its lane is later than
// the moment its meter stopped.
TEST(FleetLifecycle, RetiredNodesEmitNoEngineEvents)
{
    obs::Tracer tracer(obs::TraceMode::Sim);
    FleetConfig cfg = churnFleetConfig();
    cfg.tracer = &tracer;
    FleetSimulator sim(cfg, churnTemplates());
    sim.run(churnTrace());

    std::map<std::uint32_t, double> last; // lane -> latest event end
    for (const obs::SimEvent &e : tracer.simEvents()) {
        double &t = last[e.lane];
        t = std::max({t, e.t0, e.t1});
    }
    std::size_t retired_with_events = 0;
    for (const auto &n : sim.nodes()) {
        if (!n->decommissioned())
            continue;
        const auto it = last.find(n->traceLane());
        if (it == last.end())
            continue;
        ++retired_with_events;
        EXPECT_LE(it->second, n->decommissionTime())
            << "node " << n->id();
    }
    EXPECT_GE(retired_with_events, 10u);
}

// An engine publishes its obs counters when an iteration leaves it
// idle, and a node retires only once its engine is idle. So after a
// run the registry holds every node's whole tally: each obs row equals
// the fleet rollup, even with dozens of nodes drained along the way.
// A retired node that never published would leave its share out.
TEST(FleetLifecycle, ObsCountersEqualRollupAfterRun)
{
    // The registry is process-wide: compare what this run adds.
    std::vector<std::uint64_t> before;
    for (const serve::CounterDef &d : serve::kServeCounters)
        if (d.obs)
            before.push_back(obs::Registry::global().counter(d.obs).total());
    FleetSimulator sim(churnFleetConfig(), churnTemplates());
    const FleetMetrics m = sim.run(churnTrace());
    EXPECT_GE(m.drains, 20u);
    EXPECT_GT(m.prefixHits, 0u);
    EXPECT_GT(m.chunkSlices, 0u);
    EXPECT_GT(m.specVerifySteps, 0u);
    std::size_t i = 0;
    for (const serve::CounterDef &d : serve::kServeCounters) {
        if (!d.obs)
            continue;
        const auto f =
            std::get<std::uint64_t serve::ServeCounters::*>(d.member);
        EXPECT_EQ(obs::Registry::global().counter(d.obs).total() -
                      before[i++],
                  m.*f)
            << d.obs;
    }
}

TEST(FleetSplitSeed, ScheduleDependsOnlyOnSeedAndId)
{
    const fault::FaultScheduleConfig fs = faultConfig();
    const auto s1 = nodeFaultSchedule(fs, 42, 3, 0.0);
    const auto s2 = nodeFaultSchedule(fs, 42, 3, 0.0);
    ASSERT_EQ(s1.size(), s2.size());
    for (std::size_t i = 0; i < s1.size(); ++i) {
        EXPECT_EQ(s1.events()[i].kind, s2.events()[i].kind);
        EXPECT_EQ(s1.events()[i].time, s2.events()[i].time);
        EXPECT_EQ(s1.events()[i].duration, s2.events()[i].duration);
    }
    // Sibling nodes draw from decorrelated streams.
    const auto other = nodeFaultSchedule(fs, 42, 4, 0.0);
    bool differs = other.size() != s1.size();
    for (std::size_t i = 0; !differs && i < s1.size(); ++i)
        differs = s1.events()[i].time != other.events()[i].time;
    EXPECT_TRUE(differs);
}

TEST(FleetSplitSeed, CommissionTimeShiftsSchedule)
{
    const fault::FaultScheduleConfig fs = faultConfig();
    const auto base = nodeFaultSchedule(fs, 7, 0, 0.0);
    const auto late = nodeFaultSchedule(fs, 7, 0, 100.0);
    ASSERT_EQ(base.size(), late.size());
    ASSERT_FALSE(base.empty());
    for (std::size_t i = 0; i < base.size(); ++i)
        EXPECT_DOUBLE_EQ(base.events()[i].time + 100.0,
                         late.events()[i].time);
}

// The acceptance property: growing the fleet must not perturb any
// existing node's fault or workload draws. Under a Null router all
// traffic lands on node 0, so node 0's per-node metrics must be
// bit-identical whether or not a second node exists.
TEST(FleetSplitSeed, AddingANodeLeavesOthersUnchanged)
{
    const auto trace = burstyTrace(1.0, 150);
    const std::vector<NodeTemplate> templates = {faultyCpuTemplate()};

    FleetConfig cfg;
    cfg.seed = 42;
    cfg.policy = RouterPolicy::Null;
    cfg.initialNodes = {0};
    FleetSimulator solo(cfg, templates);
    const FleetMetrics ms = solo.run(trace);

    cfg.initialNodes = {0, 0};
    FleetSimulator duo(cfg, templates);
    const FleetMetrics md = duo.run(trace);

    ASSERT_EQ(md.nodes.size(), 2u);
    EXPECT_EQ(serveJson(ms.nodes[0].serve),
              serveJson(md.nodes[0].serve));
    EXPECT_EQ(md.nodes[1].serve.completed, 0u);
}

TEST(FleetEquivalence, OneNodeNullFleetMatchesBareServer)
{
    const serve::WorkloadConfig load = bench::serveSeedWorkload();
    const NodeTemplate tmpl = cpuTdxNode();

    serve::Server server(tmpl.makeStep(), tmpl.server);
    const serve::ServeMetrics direct =
        server.run(serve::generateWorkload(load));

    FleetConfig cfg;
    cfg.seed = 1;
    cfg.policy = RouterPolicy::Null;
    cfg.initialNodes = {0};
    FleetSimulator sim(cfg, {tmpl});
    const FleetMetrics m = sim.run(serve::generateWorkload(load));

    ASSERT_EQ(m.nodes.size(), 1u);
    EXPECT_EQ(serveJson(direct), serveJson(m.nodes[0].serve));
    EXPECT_EQ(m.completed, direct.completed);
    EXPECT_EQ(m.ttft.p99, direct.ttft.p99);
    EXPECT_EQ(m.tpot.p99, direct.tpot.p99);
    EXPECT_EQ(m.makespan, direct.makespan);
}

TEST(FleetEquivalence, OneNodeNullFleetMatchesBareServerUnderFaults)
{
    const serve::WorkloadConfig load = bench::serveSeedWorkload();
    const NodeTemplate tmpl = faultyCpuTemplate();
    const std::uint64_t fleet_seed = 42;

    // Feed the bare server the exact schedule the fleet derives for
    // node 0 under this fleet seed.
    serve::ServerConfig direct_cfg = tmpl.server;
    direct_cfg.faults =
        nodeFaultSchedule(tmpl.faults, fleet_seed, 0, 0.0);
    serve::Server server(tmpl.makeStep(), direct_cfg);
    const serve::ServeMetrics direct =
        server.run(serve::generateWorkload(load));

    FleetConfig cfg;
    cfg.seed = fleet_seed;
    cfg.policy = RouterPolicy::Null;
    cfg.initialNodes = {0};
    FleetSimulator sim(cfg, {tmpl});
    const FleetMetrics m = sim.run(serve::generateWorkload(load));

    ASSERT_EQ(m.nodes.size(), 1u);
    EXPECT_EQ(serveJson(direct), serveJson(m.nodes[0].serve));
    EXPECT_GT(m.restarts + m.retries + m.shed, 0u);
}

TEST(FleetRouter, RoundRobinSpreadsEvenly)
{
    const auto trace = burstyTrace(1.0, 200);
    NodeTemplate tmpl = cpuTdxNode();
    FleetConfig cfg;
    cfg.policy = RouterPolicy::RoundRobin;
    cfg.initialNodes = {0, 0, 0, 0};
    FleetSimulator sim(cfg, {tmpl});
    const FleetMetrics m = sim.run(trace);
    ASSERT_EQ(m.nodes.size(), 4u);
    for (const NodeSummary &n : m.nodes)
        EXPECT_EQ(n.serve.submitted, 50u);
}

TEST(FleetRouter, CostAwarePrefersCheapUntilSloPressure)
{
    // At a trickle the cost-aware router should keep everything on
    // the cheap TDX node and leave the cGPU idle.
    serve::WorkloadConfig load = bench::serveSeedWorkload();
    load.arrivalRate = 0.05;
    load.numRequests = 40;
    FleetConfig cfg;
    cfg.policy = RouterPolicy::CostAware;
    cfg.ttftSlo = 30.0;
    cfg.initialNodes = {0, 1};
    FleetSimulator sim(cfg, {cpuTdxNode(), cgpuH100Node()});
    const FleetMetrics m = sim.run(serve::generateWorkload(load));
    ASSERT_EQ(m.nodes.size(), 2u);
    EXPECT_EQ(m.nodes[0].serve.submitted, 40u);
    EXPECT_EQ(m.nodes[1].serve.submitted, 0u);

    // Under heavy load with a tight SLO it must spill to the GPU.
    load.arrivalRate = 4.0;
    load.numRequests = 400;
    cfg.ttftSlo = 2.0;
    FleetSimulator pressured(cfg, {cpuTdxNode(), cgpuH100Node()});
    const FleetMetrics p =
        pressured.run(serve::generateWorkload(load));
    EXPECT_GT(p.nodes[1].serve.submitted, 0u);
    EXPECT_GT(p.nodes[0].serve.submitted, 0u);
}

TEST(FleetAutoscaler, AddsNodesUnderPressureAndBillsThem)
{
    const auto trace = burstyTrace(3.0, 400);
    NodeTemplate tmpl = cpuTdxNode();
    FleetConfig cfg = mixedFleetConfig();
    cfg.policy = RouterPolicy::LeastOutstanding;
    cfg.initialNodes = {0};
    cfg.autoscaler.minNodes = 1;
    FleetSimulator sim(cfg, {tmpl});
    const FleetMetrics m = sim.run(trace);
    EXPECT_GT(m.scaleUps, 0u);
    EXPECT_GT(m.peakNodes, 1u);
    EXPECT_EQ(m.nodes.size(), 1 + m.scaleUps);
    double total = 0.0;
    for (const NodeSummary &n : m.nodes) {
        EXPECT_GT(n.billedSeconds, 0.0);
        total += n.costUsd;
    }
    EXPECT_DOUBLE_EQ(total, m.totalCostUsd);
    // Autoscaled nodes pay the cold start: commission lags the
    // provisioning decision by delay + TEE re-provisioning.
    for (std::size_t i = 1; i < m.nodes.size(); ++i) {
        const NodeSummary &n = m.nodes[i];
        EXPECT_GE(n.availableAt - n.provisionStart,
                  tmpl.provisionDelaySec);
    }
}

TEST(FleetMetricsJson, TimelineAndCostsAreCoherent)
{
    const auto trace = burstyTrace();
    FleetSimulator sim(mixedFleetConfig(),
                       {faultyCpuTemplate(), cgpuH100Node()});
    const FleetMetrics m = sim.run(trace);
    EXPECT_EQ(m.submitted, trace.size());
    EXPECT_GT(m.completed, 0u);
    EXPECT_GT(m.totalCostUsd, 0.0);
    EXPECT_GT(m.costPer1kTokens, 0.0);
    EXPECT_GE(m.peakNodes, 2u);
    EXPECT_GE(m.meanLiveNodes, 1.0);
    ASSERT_FALSE(m.nodeTimeline.empty());
    EXPECT_EQ(m.nodeTimeline.front().first, 0.0);
    EXPECT_EQ(m.nodeTimeline.front().second, 2u);
    const std::string js = fleetJson(m);
    EXPECT_NE(js.find("\"node_timeline\""), std::string::npos);
    EXPECT_NE(js.find("\"cost_per_1k_tokens_usd\""),
              std::string::npos);
}

TEST(FleetMetricsJson, NodeMetricsStayValidAfterRun)
{
    // The engines point into the simulator's copy of the trace, which
    // must outlive run(): per-node metrics read afterwards match the
    // rollup's byte for byte (ASan flags a dangling trace).
    FleetSimulator sim(mixedFleetConfig(),
                       {faultyCpuTemplate(), cgpuH100Node()});
    const FleetMetrics m = sim.run(burstyTrace());
    ASSERT_EQ(sim.nodes().size(), m.nodes.size());
    for (std::size_t i = 0; i < m.nodes.size(); ++i)
        EXPECT_EQ(serveJson(sim.nodes()[i]->metrics()),
                  serveJson(m.nodes[i].serve))
            << "node " << i;
}

TEST(FleetChunked, AggregationSumsNodesAndGatesJsonKeys)
{
    // A fault-free homogeneous TDX fleet with chunked prefill on:
    // the fleet rollup must sum the per-node chunk counters, take
    // the max of the per-node step bounds, pool the ITL samples,
    // and emit the gated JSON keys — while a chunking-off run of
    // the same fleet emits none of them.
    const llm::ModelConfig model = llm::llama2_7b();
    NodeTemplate node = cpuTdxNode();
    bench::applyPagedKv(node.server, model);
    node.server.chunkedPrefill.mode = serve::ChunkMode::DecodePriority;
    node.server.chunkedPrefill.chunkTokens = 128;

    FleetConfig cfg;
    cfg.policy = RouterPolicy::LeastOutstanding;
    cfg.ttftSlo = 2.0;
    cfg.initialNodes = {0, 0};

    const auto trace = burstyTrace(1.0, 150);
    FleetSimulator sim(cfg, {node});
    const FleetMetrics m = sim.run(trace);

    EXPECT_TRUE(m.chunkedEnabled);
    std::size_t slices = 0;
    std::uint64_t tokens = 0, max_step = 0;
    for (const NodeSummary &n : m.nodes) {
        slices += n.serve.chunkSlices;
        tokens += n.serve.chunkPrefillTokens;
        max_step =
            std::max(max_step, n.serve.maxStepPrefillTokens);
    }
    EXPECT_GT(slices, 0u);
    EXPECT_EQ(m.chunkSlices, slices);
    EXPECT_EQ(m.chunkPrefillTokens, tokens);
    EXPECT_EQ(m.maxStepPrefillTokens, max_step);
    EXPECT_GT(m.itl.p99, 0.0);

    const std::string js = fleetJson(m);
    EXPECT_NE(js.find("\"chunk_slices\""), std::string::npos);
    EXPECT_NE(js.find("\"itl_p99_s\""), std::string::npos);
    EXPECT_NE(js.find("\"max_step_prefill_tokens\""),
              std::string::npos);

    NodeTemplate off_node = node;
    off_node.server.chunkedPrefill.mode = serve::ChunkMode::Off;
    FleetSimulator off_sim(cfg, {off_node});
    const std::string off_js = fleetJson(off_sim.run(trace));
    EXPECT_EQ(off_js.find("chunk_"), std::string::npos)
        << "off-mode fleet JSON must stay byte-identical to the "
           "pre-chunking format";
    EXPECT_EQ(off_js.find("itl_"), std::string::npos);
}

TEST(FleetRollup, OneNodeFleetCountersEqualTheNodesRowByRow)
{
    // A one-node fleet under faults that reject attestations, with
    // every feature on so nearly every counter moves: each rolled-up
    // counter must equal the node's own, and the fleet JSON must
    // carry what the node JSON carries.
    NodeTemplate node = faultyCpuTemplate();
    bench::applyPagedKv(node.server, llm::llama2_7b());
    node.server.prefixMode = serve::PrefixMode::PerTenant;
    node.server.chunkedPrefill.mode = serve::ChunkMode::DecodePriority;
    node.server.chunkedPrefill.chunkTokens = 128;
    node.server.specDecode.enabled = true;

    auto trace = burstyTrace(1.0, 300);
    serve::applySharedPrefixMix(trace, serve::SharedPrefixMix{});
    FleetConfig cfg;
    cfg.seed = 42;
    cfg.policy = RouterPolicy::Null;
    cfg.initialNodes = {0};
    FleetSimulator sim(cfg, {node});
    const FleetMetrics m = sim.run(trace);

    ASSERT_EQ(m.nodes.size(), 1u);
    const serve::ServeMetrics &n = m.nodes[0].serve;
    EXPECT_GT(n.attestRejections, 0u);
    EXPECT_GT(n.prefixHits, 0u);
    EXPECT_GT(n.chunkSlices, 0u);
    EXPECT_GT(n.specVerifySteps, 0u);
    for (std::size_t i = 0; i < serve::kServeCounters.size(); ++i) {
        const serve::CounterDef &d = serve::kServeCounters[i];
        std::visit(
            [&](auto f) {
                EXPECT_EQ(m.*f, n.*f)
                    << "row " << i << " " << (d.json ? d.json : "");
            },
            d.member);
    }
    const std::string js = fleetJson(m);
    for (const char *key : {"\"attest_rejections\":", "\"itl_p99_s\":",
                            "\"spec_mean_accepted_len\":"})
        EXPECT_NE(js.find(key), std::string::npos) << key;
}

TEST(FleetRollup, ItlPoolsEveryNodesSamplesInNodeIdOrder)
{
    // The FleetRollup node shape on three round-robin nodes: the fleet
    // ITL summary must be, bit for bit, the plain summary of every
    // node's expanded gaps concatenated in node-id order.
    NodeTemplate node = faultyCpuTemplate();
    bench::applyPagedKv(node.server, llm::llama2_7b());
    node.server.prefixMode = serve::PrefixMode::PerTenant;
    node.server.chunkedPrefill.mode = serve::ChunkMode::DecodePriority;
    node.server.chunkedPrefill.chunkTokens = 128;
    node.server.specDecode.enabled = true;

    auto trace = burstyTrace(2.0, 300);
    serve::applySharedPrefixMix(trace, serve::SharedPrefixMix{});
    FleetConfig cfg;
    cfg.seed = 42;
    cfg.policy = RouterPolicy::RoundRobin;
    cfg.initialNodes = {0, 0, 0};
    FleetSimulator sim(cfg, {node});
    const FleetMetrics m = sim.run(trace);

    std::vector<double> pooled;
    ASSERT_GE(sim.nodes().size(), 3u);
    for (const auto &n : sim.nodes()) {
        const RunLengthSamples &s = n->engine().tally().itlSamples;
        EXPECT_GT(s.size(), 0u);
        for (const RunLengthSamples::Run &r : s.runs())
            pooled.insert(pooled.end(), r.count, r.value);
    }
    const SampleSummary want = summarize(pooled, 0.0);
    ASSERT_GT(want.count, 0u);
    EXPECT_EQ(m.itl.count, want.count);
    EXPECT_EQ(m.itl.p50, want.p50);
    EXPECT_EQ(m.itl.p95, want.p95);
    EXPECT_EQ(m.itl.p99, want.p99);
    EXPECT_EQ(m.itl.min, want.min);
    EXPECT_EQ(m.itl.max, want.max);
    EXPECT_NEAR(m.itl.mean, want.mean, 1e-12 * want.mean);
    EXPECT_NEAR(m.itl.stddev, want.stddev, 1e-12 * want.stddev);
}

// The churn golden's workload evicts under both pool pressure and the
// pinned-block budget on nodes that come and go; each eviction must be
// the one the full tree scan picks (tests/prefix_victim_ref.hh).
TEST(PrefixEvictorOracle, ChurnWorkloadMatchesTreeScan)
{
    serve::PrefixCacheTestPeer oracle;
    FleetSimulator sim(churnFleetConfig(), churnTemplates());
    const FleetMetrics m = sim.run(churnTrace());
    EXPECT_GT(m.prefixEvictions, 0u);
    EXPECT_EQ(oracle.victims, m.prefixEvictions);
    EXPECT_EQ(oracle.mismatches, 0u);
}

TEST(FleetGolden, MixedFleetMatchesGolden)
{
    std::map<std::string, double> out;
    {
        FleetSimulator sim(mixedFleetConfig(),
                           {faultyCpuTemplate(), cgpuH100Node()});
        flattenFleet(out, "fleet.mixed", sim.run(burstyTrace()));
    }
    cllm::testing::checkAgainstGolden("fleet_mixed.json", out);
}

// The mixed fleet scales up once and never drains, so it cannot tell
// a wrong live-node set apart. The churn fleet provisions and retires
// dozens of nodes and pins every one of them.
TEST(FleetGolden, ChurnFleetMatchesGolden)
{
    std::map<std::string, double> out;
    {
        FleetSimulator sim(churnFleetConfig(), churnTemplates());
        const FleetMetrics m = sim.run(churnTrace());
        EXPECT_GE(m.scaleUps, 20u);
        EXPECT_GE(m.drains, 20u);
        EXPECT_GT(m.prefixHits, 0u);
        EXPECT_GT(m.chunkSlices, 0u);
        EXPECT_GT(m.specVerifySteps, 0u);
        flattenFleet(out, "fleet.churn", m);
        out["fleet.churn.prefixHits"] =
            static_cast<double>(m.prefixHits);
        out["fleet.churn.prefixEvictions"] =
            static_cast<double>(m.prefixEvictions);
        out["fleet.churn.chunkSlices"] =
            static_cast<double>(m.chunkSlices);
        out["fleet.churn.specVerifySteps"] =
            static_cast<double>(m.specVerifySteps);
        for (const NodeSummary &n : m.nodes) {
            const std::string np =
                "fleet.churn.node" + std::to_string(n.id);
            out[np + ".availableAt"] = n.availableAt;
            out[np + ".billedUntil"] = n.billedUntil;
        }
    }
    cllm::testing::checkAgainstGolden("fleet_churn.json", out);
}

// Golden proof of the equivalence property: the 1-node Null-router
// fleet numbers are pinned to the same values a bare serve::Server
// produced when the serving goldens were captured.
TEST(FleetGolden, SingleNodeNullRouterMatchesGolden)
{
    std::map<std::string, double> out;
    {
        FleetConfig cfg;
        cfg.policy = RouterPolicy::Null;
        cfg.initialNodes = {0};
        FleetSimulator sim(cfg, {cpuTdxNode()});
        const FleetMetrics m = sim.run(
            serve::generateWorkload(bench::serveSeedWorkload()));
        flattenFleet(out, "fleet.single", m);
    }
    cllm::testing::checkAgainstGolden("fleet_single_node.json", out);
}

// Tracing is observational: attaching a tracer to the canonical
// faulty mixed fleet must leave the full FleetMetrics JSON
// byte-identical, while the tracer itself captures the request
// lifecycles and fault instants.
TEST(FleetTracing, AttachedTracerDoesNotPerturbMetrics)
{
    const auto trace = burstyTrace();
    auto runJson = [&](obs::Tracer *tr) {
        FleetConfig cfg = mixedFleetConfig();
        cfg.tracer = tr;
        FleetSimulator sim(cfg,
                           {faultyCpuTemplate(), cgpuH100Node()});
        return fleetJson(sim.run(trace));
    };
    obs::Tracer tracer(obs::TraceMode::Sim);
    const std::string untraced = runJson(nullptr);
    EXPECT_EQ(untraced, runJson(&tracer));
    EXPECT_FALSE(tracer.simEvents().empty());
    bool saw_fault = false, saw_route = false;
    for (const obs::SimEvent &e : tracer.simEvents()) {
        saw_fault |= e.name.rfind("fault:", 0) == 0;
        saw_route |= e.name == "route";
    }
    EXPECT_TRUE(saw_fault);
    EXPECT_TRUE(saw_route);
}

// The exported sim trace of a fleet run is a pure function of the
// simulation inputs: identical across repeated runs and across pool
// thread counts (the determinism contract DESIGN.md pins).
TEST(FleetTracing, ExportedTraceBitIdentical1v8Threads)
{
    const auto trace = burstyTrace();
    auto exportTrace = [&](unsigned threads) {
        const unsigned saved = par::threadCount();
        par::setThreadCount(threads);
        FleetConfig cfg = mixedFleetConfig();
        obs::Tracer tracer(obs::TraceMode::Sim);
        cfg.tracer = &tracer;
        FleetSimulator sim(cfg,
                           {faultyCpuTemplate(), cgpuH100Node()});
        sim.run(trace);
        par::setThreadCount(saved);
        std::ostringstream os;
        obs::writeChromeTrace(os, tracer);
        return os.str();
    };
    EXPECT_EQ(exportTrace(1), exportTrace(8));
}
