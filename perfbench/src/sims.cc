#include "sims.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "cost/pricing.hh"
#include "fleet/presets.hh"
#include "fleet/simulator.hh"
#include "serve/engine.hh"
#include "timed_step.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace cllm;

namespace {

/** Fill the fields ServeMetrics and FleetMetrics share. */
template <typename M>
Modeled
modeledFrom(const M &m)
{
    Modeled o;
    o.tokPerS = m.tokensPerSecond;
    o.ttftP50 = m.ttft.p50;
    o.ttftP99 = m.ttft.p99;
    o.itlP99 = m.itl.p99;
    o.submitted = m.submitted;
    o.completed = m.completed;
    o.dropped = m.shed + m.timedOut + m.failed;
    // The library's attainment divides by completed requests; a shed
    // request would raise it. Count every dropped request as a miss.
    o.sloAttainment =
        m.submitted ? m.sloAttainment * static_cast<double>(m.completed) /
                          static_cast<double>(m.submitted)
                    : 0.0;
    o.outputTokens = m.outputTokens;
    o.meanBatch = m.meanBatchOccupancy;
    o.specEnabled = m.specEnabled;
    o.chunked = m.chunkedEnabled;
    o.specTokens = m.specAccepted + m.specRejected + m.specBonus;
    return o;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Per-layer counters of the memory, prefix, chunk and spec layers,
 * from a serve or fleet outcome (the two share field names).
 */
template <typename M>
void
reportFeatureLayers(Report &r, const M &m, double kv_util_mean)
{
    r.set("kv.util_mean", kv_util_mean, "fraction");
    r.set("kv.util_peak", m.kvUtilizationPeak, "fraction");
    r.set("kv.preemptions", static_cast<double>(m.kvPreemptions),
          "count");
    r.set("kv.swap_outs", static_cast<double>(m.kvSwapOuts), "count");
    r.set("prefix.hit_rate",
          ratio(static_cast<double>(m.prefixHits),
                static_cast<double>(m.prefixHits + m.prefixMisses)),
          "fraction");
    r.set("prefix.cached_token_share",
          ratio(static_cast<double>(m.prefixCachedTokens),
                static_cast<double>(m.prefixCachedTokens +
                                    m.prefillTokensComputed)),
          "fraction");
    r.set("prefix.evictions", static_cast<double>(m.prefixEvictions),
          "count");
    r.set("prefix.pinned_peak_blocks",
          static_cast<double>(m.prefixPinnedPeak), "count");
    r.set("chunk.slices", static_cast<double>(m.chunkSlices), "count");
    r.set("chunk.mixed_steps", static_cast<double>(m.mixedSteps),
          "count");
    r.set("chunk.max_step_prefill_tokens",
          static_cast<double>(m.maxStepPrefillTokens), "count");
    r.set("chunk.starvation_kicks",
          static_cast<double>(m.starvationKicks), "count");
    // A verify cycle of one sequence ends in a bonus token or in a
    // rejection resample, so their sum counts per-sequence cycles.
    r.set("spec.accept_rate",
          ratio(static_cast<double>(m.specAccepted),
                static_cast<double>(m.specDraftTokens)),
          "fraction");
    r.set("spec.mean_accepted_len",
          ratio(static_cast<double>(m.specAccepted),
                static_cast<double>(m.specBonus + m.specRejected)),
          "tokens");
    r.set("spec.verify_steps", static_cast<double>(m.specVerifySteps),
          "count");
}

/** Step-pricing metrics from the decorator's totals. */
void
reportPricing(Report &r, const PriceStats &ps, double replay_s)
{
    for (int k = 0; k < PriceStats::kKinds; ++k)
        r.set(std::string("llm.price_calls.") + PriceStats::kNames[k],
              static_cast<double>(ps.calls[k]), "count");
    const double price_s = static_cast<double>(ps.ns) * 1e-9;
    r.set("llm.price_ns_mean",
          ratio(static_cast<double>(ps.ns),
                static_cast<double>(ps.totalCalls())),
          "ns");
    r.set("llm.price_share", ratio(price_s, replay_s), "fraction");
    r.set("sim.replay_s", replay_s, "s");
    r.set("sim.self_s", replay_s - price_s, "s");
}

/**
 * Drive a ContinuousEngine over `trace` from outside, exactly as
 * `Server::run` does (sort by arrival, submit all, iterate to idle,
 * finalize), timing every `iterate` call and the finalize pass.
 */
serve::ServeMetrics
driveEngine(const serve::StepModel &step, const serve::ServerConfig &cfg,
            std::vector<serve::Request> trace, Report &r, Spans &spans)
{
    std::sort(trace.begin(), trace.end(),
              [](const serve::Request &a, const serve::Request &b) {
                  return a.arrival < b.arrival;
              });
    serve::ContinuousEngine eng(step, cfg);
    for (serve::Request &q : trace)
        eng.submit(&q, q.arrival, 0);

    std::vector<double> iter_us;
    {
        SpanGuard g(&spans, "serve.iterate_loop");
        while (!eng.idle()) {
            const std::uint64_t t0 = nowNs();
            eng.iterate();
            iter_us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
        }
    }

    serve::ServeMetrics m;
    const std::uint64_t f0 = nowNs();
    {
        SpanGuard g(&spans, "serve.finalize");
        std::vector<const serve::Request *> reqs;
        reqs.reserve(trace.size());
        for (const serve::Request &q : trace)
            reqs.push_back(&q);
        m = serve::finalizeRequests(reqs, eng.clock(), eng.occupancySum(),
                                    eng.steps(), eng.tally(),
                                    cfg.ttftSlo, cfg.tpotSlo);
    }
    const double finalize_s = secondsSince(f0);
    m.kvUtilizationPeak = eng.kvPeak();
    m.kvUtilizationMean = eng.kvUtilizationMean();
    m.peakBatchOccupancy = static_cast<double>(eng.peakBatch());
    // Every emitted token is one unit of batch occupancy.
    r.check("serve.occupancy_law",
            eng.occupancySum() == static_cast<double>(m.outputTokens));

    r.set("serve.iterations", static_cast<double>(iter_us.size()),
          "count");
    r.set("serve.iterate_us_p50", quantile(iter_us, 0.50), "us");
    r.set("serve.iterate_us_p99", quantile(iter_us, 0.99), "us");
    r.set("serve.finalize_ms", finalize_s * 1e3, "ms");
    r.set("serve.itl_samples",
          static_cast<double>(eng.tally().itlSamples.size()), "count");
    r.set("serve.decode_steps", static_cast<double>(m.decodeSteps),
          "count");
    r.set("serve.mean_batch", m.meanBatchOccupancy, "seqs");
    r.set("serve.peak_batch", m.peakBatchOccupancy, "seqs");
    return m;
}

/** A single server is a fleet of one node that never scales. */
void
reportSingleNodeFleet(Report &r)
{
    r.set("fleet.peak_nodes", 1.0, "nodes");
    r.set("fleet.mean_live_nodes", 1.0, "nodes");
    r.set("fleet.scale_ups", 0.0, "count");
    r.set("fleet.drains", 0.0, "count");
    r.set("fleet.backlogged", 0.0, "count");
}

// ---------------------------------------------------------------------
// serve_decode

class ServeDecode : public SimWorkload
{
  public:
    ServeDecode(std::uint64_t seed, bool tiny)
        : node_(fleet::cpuTdxNode())
    {
        // Reserved, unbounded KV; prefix, chunk, spec and faults off.
        cfg_ = node_.server;
        cfg_.kvBlocks = 0;
        cfg_.kvMode = serve::KvMode::Reserved;

        load_.process = serve::ArrivalProcess::Poisson;
        load_.arrivalRate = kRate;
        load_.numRequests = tiny ? 400 : 40000;
        load_.meanInLen = 128;
        load_.meanOutLen = 512;
        load_.seed = seed;
        trace_ = serve::generateWorkload(load_);
        server_ = std::make_unique<serve::Server>(node_.makeStep(), cfg_);
    }

    std::size_t requests() const override { return trace_.size(); }

    Modeled
    run() const override
    {
        return outcome(server_->run(trace_));
    }

    Modeled
    runTraced(Report &r, Spans &spans) const override
    {
        PriceStats ps;
        TimedStepModel step(node_.makeStep(), ps);
        const std::uint64_t t0 = nowNs();
        serve::ServeMetrics m;
        {
            SpanGuard g(&spans, "sim.replay");
            m = driveEngine(step, cfg_, trace_, r, spans);
        }
        reportPricing(r, ps, secondsSince(t0));
        reportFeatureLayers(r, m, m.kvUtilizationMean);
        reportSingleNodeFleet(r);
        return outcome(m);
    }

    Modeled
    runDoubled() const override
    {
        serve::WorkloadConfig load = load_;
        load.numRequests *= 2;
        return outcome(server_->run(serve::generateWorkload(load)));
    }

  private:
    /**
     * Requests/s at about two thirds of the server's full-batch decode
     * rate: the busiest load whose TTFT tail stays put from seed to
     * seed and when the trace doubles.
     */
    static constexpr double kRate = 0.35;

    Modeled
    outcome(const serve::ServeMetrics &m) const
    {
        Modeled o = modeledFrom(m);
        o.decodeSteps = m.decodeSteps;
        o.nodeCompleted = m.completed;
        o.usdPer1kTok = m.outputTokens
                            ? cost::costPer1kTokens(
                                  m.outputTokens,
                                  cost::nodeSecondsUsd(node_.pricePerHour,
                                                       m.makespan))
                            : 0.0;
        return o;
    }

    fleet::NodeTemplate node_;
    serve::ServerConfig cfg_;
    serve::WorkloadConfig load_;
    std::vector<serve::Request> trace_;
    std::unique_ptr<serve::Server> server_;
};

// ---------------------------------------------------------------------
// fleet_shared_prefix

class FleetSharedPrefix : public SimWorkload
{
  public:
    FleetSharedPrefix(std::uint64_t seed, bool tiny)
    {
        const llm::ModelConfig model = llm::llama2_7b();
        fleet::NodeTemplate cpu = fleet::cpuTdxNode();
        fleet::NodeTemplate gpu = fleet::cgpuH100Node();
        // Pools small enough that admissions keep evicting cached
        // prefixes; the cache may pin half of each pool.
        cpu.server.kvBlocks = 1536;
        gpu.server.kvBlocks = 4096;
        for (fleet::NodeTemplate *t : {&cpu, &gpu}) {
            serve::ServerConfig &s = t->server;
            s.kvMode = serve::KvMode::Paged;
            s.paged.preempt = serve::KvPreemptPolicy::SwapToEpc;
            s.paged.kvBytesPerToken =
                model.kvBytesPerToken(hw::Dtype::Bf16);
            s.prefixMode = serve::PrefixMode::PerTenant;
            s.prefix.maxBlocks = s.kvBlocks / 2;
            s.chunkedPrefill.mode = serve::ChunkMode::DecodePriority;
            s.chunkedPrefill.chunkTokens = 256;
            s.specDecode.enabled = true;
            s.specDecode.seed = splitSeed(seed, 3);
            t->meanInLenHint = 1100;
        }
        templates_ = {cpu, gpu};

        cfg_.seed = seed;
        cfg_.policy = fleet::RouterPolicy::PrefixAffinity;
        cfg_.initialNodes = {0, 0, 1};
        // Two CPU nodes and one GPU node always run; bursts add GPU
        // nodes, which drain again once the queue empties. A low
        // scale-up watermark and a short cooldown make the autoscaler
        // act on most bursts (about 150 scale-ups a trace): when it
        // acted only on rare overloads, the handful of such episodes
        // in a trace moved the modeled ITL p99 and $/1k-tok by 10%
        // from seed to seed.
        cfg_.autoscaler.enabled = true;
        cfg_.autoscaler.addTemplate = 1;
        cfg_.autoscaler.minNodes = 3;
        cfg_.autoscaler.maxNodes = 8;
        cfg_.autoscaler.queueHighPerNode = 1.5;
        cfg_.autoscaler.cooldownSec = 10.0;
        cfg_.autoscaler.queueLowPerNode = kQueueLow;

        load_.process = serve::ArrivalProcess::BurstyOnOff;
        load_.arrivalRate = kRate;
        load_.numRequests = tiny ? 300 : 45000;
        load_.meanInLen = 1100;
        load_.meanOutLen = 64;
        load_.lengthSigma = 0.1;
        // Short on/off phases: many bursts per trace, so the modeled
        // tail averages over bursts instead of hinging on a few.
        load_.burstRateFactor = 4.0;
        load_.idleRateFactor = 0.25;
        load_.meanOnSec = 2.0;
        load_.meanOffSec = 4.0;
        load_.seed = seed;

        mix_.tenants = 16;
        mix_.promptsPerTenant = 2;
        mix_.prefixLen = 1024;
        mix_.sharedFraction = 0.9;
        mix_.seed = splitSeed(seed, 1);

        trace_ = makeTrace(load_);
    }

    std::size_t requests() const override { return trace_.size(); }

    Modeled
    run() const override
    {
        fleet::FleetSimulator sim(cfg_, templates_);
        return outcome(sim.run(trace_));
    }

    Modeled
    runTraced(Report &r, Spans &spans) const override
    {
        PriceStats ps;
        std::vector<fleet::NodeTemplate> timed = templates_;
        for (fleet::NodeTemplate &t : timed)
            t.makeStep = [inner = t.makeStep, &ps] {
                return std::unique_ptr<serve::StepModel>(
                    std::make_unique<TimedStepModel>(inner(), ps));
            };
        fleet::FleetSimulator sim(cfg_, timed);
        const std::uint64_t t0 = nowNs();
        fleet::FleetMetrics m;
        {
            SpanGuard g(&spans, "sim.replay");
            m = sim.run(trace_);
        }
        reportPricing(r, ps, secondsSince(t0));

        // Per-node numbers come from FleetMetrics::nodes. The node
        // objects the simulator still holds point into run()'s
        // by-value copy of the trace, which is gone by now.
        double kv_util_weighted = 0.0;
        double steps = 0.0;
        for (const fleet::NodeSummary &n : m.nodes) {
            kv_util_weighted += n.serve.kvUtilizationMean *
                                static_cast<double>(n.serve.decodeSteps);
            steps += static_cast<double>(n.serve.decodeSteps);
        }
        reportFeatureLayers(r, m, ratio(kv_util_weighted, steps));
        r.set("fleet.peak_nodes", static_cast<double>(m.peakNodes),
              "nodes");
        r.set("fleet.mean_live_nodes", m.meanLiveNodes, "nodes");
        r.set("fleet.scale_ups", static_cast<double>(m.scaleUps),
              "count");
        r.set("fleet.drains", static_cast<double>(m.drains), "count");
        r.set("fleet.backlogged", static_cast<double>(m.backlogged),
              "count");
        nodeReplay(r, spans);
        return outcome(m);
    }

    Modeled
    runDoubled() const override
    {
        serve::WorkloadConfig load = load_;
        load.numRequests *= 2;
        fleet::FleetSimulator sim(cfg_, templates_);
        return outcome(sim.run(makeTrace(load)));
    }

  private:
    /** Base request rate; bursts run at 4x it, idle phases at 0.25x. */
    static constexpr double kRate = 1.0;
    /**
     * Drain watermark. The autoscaler drains the least-loaded node and
     * breaks ties by price. Under 0.25 per node, a fleet of at most
     * eight nodes drains only with at most one request outstanding, so
     * some idle GPU node always ties at zero and outprices the CPU
     * nodes. At the library's 0.5, a CPU node was drained whenever
     * every GPU node held a request, and from then on only GPU nodes
     * came back: a few seeds ended on an all-GPU fleet with 70% higher
     * $/1k-tok and 30% lower modeled ITL p99.
     */
    static constexpr double kQueueLow = 0.2;
    /** The node replay serves every kNodeShare-th request. */
    static constexpr std::size_t kNodeShare = 4;

    std::vector<serve::Request>
    makeTrace(const serve::WorkloadConfig &load) const
    {
        std::vector<serve::Request> t = serve::generateWorkload(load);
        serve::applySharedPrefixMix(t, mix_);
        return t;
    }

    /**
     * The fleet drives its engines internally, so the engine loop is
     * timed from outside on one CPU node's engine (all features on)
     * replaying every kNodeShare-th request of the trace.
     */
    void
    nodeReplay(Report &r, Spans &spans) const
    {
        std::vector<serve::Request> share;
        for (std::size_t i = 0; i < trace_.size(); i += kNodeShare)
            share.push_back(trace_[i]);
        const std::unique_ptr<serve::StepModel> step =
            templates_[0].makeStep();
        SpanGuard g(&spans, "serve.node_replay");
        driveEngine(*step, templates_[0].server, std::move(share), r,
                    spans);
    }

    Modeled
    outcome(const fleet::FleetMetrics &m) const
    {
        Modeled o = modeledFrom(m);
        o.usdPer1kTok = m.costPer1kTokens;
        for (const fleet::NodeSummary &n : m.nodes) {
            o.decodeSteps += n.serve.decodeSteps;
            o.nodeCompleted += n.serve.completed;
        }
        return o;
    }

    std::vector<fleet::NodeTemplate> templates_;
    fleet::FleetConfig cfg_;
    serve::WorkloadConfig load_;
    serve::SharedPrefixMix mix_;
    std::vector<serve::Request> trace_;
};

} // namespace

std::string
Modeled::digest() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "tok/s=%.17g ttft50=%.17g ttft99=%.17g itl99=%.17g slo=%.17g "
        "usd=%.17g sub=%llu done=%llu drop=%llu out=%llu steps=%llu "
        "batch=%.17g spec=%llu",
        tokPerS, ttftP50, ttftP99, itlP99, sloAttainment, usdPer1kTok,
        static_cast<unsigned long long>(submitted),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(dropped),
        static_cast<unsigned long long>(outputTokens),
        static_cast<unsigned long long>(decodeSteps), meanBatch,
        static_cast<unsigned long long>(specTokens));
    return buf;
}

void
Modeled::checkInto(Report &r) const
{
    r.check("sim.conservation", completed + dropped == submitted,
            digest());
    // meanBatch averages over every engine step. With chunked prefill
    // some steps only prefill and are not decode steps, so there the
    // product can only fall short of the token count.
    const double occ = meanBatch * static_cast<double>(decodeSteps);
    const double out = static_cast<double>(outputTokens);
    const double tol = 1e-9 * out;
    r.check("sim.occupancy_closure",
            out > 0.0 && (chunked ? occ <= out + tol
                                  : std::abs(occ - out) <= tol),
            digest());
    if (specEnabled)
        r.check("sim.spec_closure", specTokens == outputTokens,
                digest());
    r.check("sim.node_rollup", nodeCompleted == completed, digest());
}

void
Modeled::reportInto(Report &r) const
{
    r.set("model.tok_per_s", tokPerS, "sim_tok/s");
    r.set("model.ttft_s_p50", ttftP50, "sim_s");
    r.set("model.ttft_s_p99", ttftP99, "sim_s");
    r.set("model.itl_s_p99", itlP99, "sim_s");
    r.set("model.slo_attainment", sloAttainment, "fraction");
    r.set("model.usd_per_1k_tok", usdPer1kTok, "USD");
}

std::unique_ptr<SimWorkload>
makeServeDecode(std::uint64_t seed, bool tiny)
{
    return std::make_unique<ServeDecode>(seed, tiny);
}

std::unique_ptr<SimWorkload>
makeFleetSharedPrefix(std::uint64_t seed, bool tiny)
{
    return std::make_unique<FleetSharedPrefix>(seed, tiny);
}

} // namespace perfbench
