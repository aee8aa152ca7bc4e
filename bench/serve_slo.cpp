/**
 * @file
 * Serving extension: online SLO behaviour of confidential deployments
 * — an operational reading of Insight 11. Replays a Poisson trace
 * against CPU (bare/TDX) and GPU (raw/cGPU) deployments under static
 * and continuous batching, reporting TTFT/TPOT percentiles, SLO
 * attainment (200 ms/token, the paper's reading-speed bar), and
 * sustained tokens/s.
 *
 * A study flag runs one of the other studies instead. With
 * `--faults [seed]`, a seeded fault schedule (attestation failures,
 * enclave restarts, EPC paging storms, KV exhaustion) is injected
 * into a TDX deployment with and without a retry/timeout/shedding
 * policy, reporting availability, retries, sheds, and downtime, plus
 * the JSON event timeline. The `--*-sweep` studies compare KV
 * disciplines, prefix caching, chunked prefill and speculative
 * decoding on the same TDX deployment.
 */

#include <functional>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.hh"
#include "cost/pricing.hh"
#include "obs/chrome_export.hh"
#include "obs/trace.hh"
#include "serve/serving.hh"
#include "util/json.hh"
#include "util/table.hh"

using namespace cllm;
using namespace cllm::serve;
using bench::serveSeedWorkload;
using bench::sharedBackend;

namespace {

/** Pool shape of the paged prefix, chunk and spec sweeps. */
constexpr std::uint64_t kPoolBlocks = 2560;
constexpr unsigned kBlockTokens = 16;

/**
 * What every study shares: the Llama2-7B bf16 deployment on one EMR2
 * socket, one tracer with one lane per run, a spot-priced node bill,
 * and the trace-plus-metrics export at the end.
 */
struct Runs
{
    explicit Runs(const bench::ObsOptions &o)
        : opt(o),
          tracer(o.trace ? obs::TraceMode::Sim : obs::TraceMode::Off)
    {
    }

    const bench::ObsOptions &opt;
    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const llm::RunParams deploy = bench::serveDeployParams(cpu);
    // Spot-priced node bill, so the seconds a feature saves show up
    // as a $/1k-token delta.
    const double instanceHr =
        cost::cpuInstanceHr(cost::gcpSpotUsEast1(), deploy.cores, 256.0);
    obs::Tracer tracer;
    std::uint32_t lane = 0;

    /** A fresh step model of the TDX deployment. */
    std::unique_ptr<StepModel>
    tdx() const
    {
        return makeCpuStepModel(cpu, sharedBackend(tee::makeTdx()),
                                model, deploy);
    }

    /** A continuous-batching config on a paged pool of `blocks`. */
    ServerConfig
    paged(std::uint64_t blocks = kPoolBlocks) const
    {
        ServerConfig cfg;
        cfg.kvBlocks = blocks;
        cfg.kvBlockTokens = kBlockTokens;
        bench::applyPagedKv(cfg, model);
        return cfg;
    }

    /** Replay `trace` on `step` under `cfg` in the next trace lane. */
    ServeMetrics
    serve(std::unique_ptr<StepModel> step, ServerConfig cfg,
          const std::string &lane_name, std::vector<Request> trace)
    {
        if (opt.trace) {
            cfg.tracer = &tracer;
            cfg.traceLane = lane;
            tracer.laneName(lane, lane_name);
        }
        ++lane;
        return Server(std::move(step), cfg).run(std::move(trace));
    }

    /** The same, on the TDX deployment. */
    ServeMetrics
    serve(const ServerConfig &cfg, const std::string &lane_name,
          std::vector<Request> trace)
    {
        return serve(tdx(), cfg, lane_name, std::move(trace));
    }

    /** $/1k generated tokens of a run on the spot-priced node. */
    double
    usdPer1k(const ServeMetrics &m) const
    {
        return cost::costPer1kTokens(
            m.outputTokens, cost::nodeSecondsUsd(instanceHr, m.makespan));
    }

    /** Export the recorded trace and the metrics snapshot. */
    int
    finish() const
    {
        if (opt.trace) {
            const std::string out = obs::traceOutputPath(
                opt.tracePath, "serve_slo.trace.json");
            obs::writeChromeTraceFile(out, tracer,
                                      &obs::Registry::global());
            std::cout << "wrote trace: " << out << " ("
                      << tracer.simEvents().size() << " events)\n";
        }
        bench::writeMetricsSnapshot(opt.metricsOut);
        return 0;
    }
};

void
runFaultStudy(Runs &runs, std::uint64_t fault_seed)
{
    std::cout << "=== Serving under faults: resilience of a TDX "
                 "deployment ===\n";
    std::cout << "fault seed " << fault_seed
              << "; attestation failures, enclave restarts, EPC "
                 "storms, KV exhaustion\n\n";

    const ServerConfig policy =
        bench::serveFaultConfig(fault_seed, runs.model);
    ServerConfig fault_free = policy;
    fault_free.faults = {};
    ServerConfig no_policy = policy;
    no_policy.resilience = {};

    struct Run
    {
        const char *name;
        const ServerConfig &cfg;
    };
    const Run scenarios[] = {
        {"TDX fault-free", fault_free},
        {"TDX + faults", policy},
        {"TDX + faults, no policy", no_policy},
    };

    Table t({"run", "avail", "tok/s", "TTFT p95 [s]", "retries",
             "shed", "timeout", "restarts", "downtime [s]"});
    ServeMetrics faulty;
    for (const Run &s : scenarios) {
        const ServeMetrics m =
            runs.serve(s.cfg, s.name, generateWorkload(serveSeedWorkload()));
        if (&s.cfg == &policy)
            faulty = m;
        t.addRow({s.name, fmtPct(100.0 * m.availability),
                  fmt(m.tokensPerSecond), fmt(m.ttft.p95, 2),
                  fmtInt(m.retries), fmtInt(m.shed),
                  fmtInt(m.timedOut), fmtInt(m.restarts),
                  fmt(m.faultDowntime, 2)});
    }
    t.print(std::cout);

    std::cout << "\nfault timeline (JSON):\n";
    JsonWriter json(std::cout);
    writeMetrics(json, faulty);
    std::cout << "\n";
}

void
runKvSweep(Runs &runs)
{
    std::cout << "=== Paged vs reserved KV: batch density at fixed "
                 "enclave memory ===\n";
    std::cout << "TDX deployment, Llama2-7B bf16; reserved pins "
                 "inLen+outLen blocks at admission,\n"
                 "paged admits by free-block headroom and preempts "
                 "(recompute or swap to EPC)\n\n";

    struct Variant
    {
        const char *name;
        KvMode mode;
        KvPreemptPolicy preempt;
    };
    const Variant variants[] = {
        {kKvModeNames.name(KvMode::Reserved), KvMode::Reserved,
         KvPreemptPolicy::Recompute},
        {"paged/recompute", KvMode::Paged,
         KvPreemptPolicy::Recompute},
        {"paged/swap-epc", KvMode::Paged, KvPreemptPolicy::SwapToEpc},
    };

    for (std::uint64_t blocks : {768ULL, 1280ULL, 2560ULL}) {
        std::cout << "--- KV pool: " << blocks << " blocks x 16 "
                  << "tokens ---\n";
        Table t({"discipline", "completed", "tok/s", "TTFT p95 [s]",
                 "peak batch", "KV mean", "KV peak", "preempts",
                 "swap [s]"});
        for (const Variant &v : variants) {
            ServerConfig cfg = runs.paged(blocks);
            cfg.kvMode = v.mode;
            cfg.paged.preempt = v.preempt;
            const ServeMetrics m = runs.serve(
                cfg, std::to_string(blocks) + " blk / " + v.name,
                generateWorkload(serveSeedWorkload()));
            t.addRow({v.name, fmtInt(m.completed),
                      fmt(m.tokensPerSecond), fmt(m.ttft.p95, 2),
                      fmtInt(static_cast<std::size_t>(
                          m.peakBatchOccupancy)),
                      fmtPct(100.0 * m.kvUtilizationMean),
                      fmtPct(100.0 * m.kvUtilizationPeak),
                      fmtInt(m.kvPreemptions),
                      fmt(m.kvSwapSeconds, 2)});
        }
        t.print(std::cout);
        std::cout << "\n";
    }
}

void
runPrefixSweep(Runs &runs, const SharedPrefixMix &mix)
{
    std::cout << "=== Prefix caching: radix-tree KV reuse on a TDX "
                 "deployment ===\n";
    std::cout << "Llama2-7B bf16, paged KV (2560 blocks x 16 "
                 "tokens); shared-system-prompt mix:\n"
              << mix.tenants << " tenants, "
              << mix.promptsPerTenant << " prompts/tenant, "
              << mix.prefixLen << "-token shared prefixes, "
              << fmtPct(100.0 * mix.sharedFraction)
              << " of requests shared\n\n";

    std::vector<Request> base = generateWorkload(serveSeedWorkload());
    applySharedPrefixMix(base, mix);

    struct Run
    {
        PrefixMode mode;
        ServeMetrics m{};
    };
    Run sweep[] = {{PrefixMode::Off}, {PrefixMode::PerTenant},
                   {PrefixMode::Global}};

    Table t({"prefix mode", "hit rate", "prefill tok", "TTFT p50 [s]",
             "TTFT p95 [s]", "tok/s", "$/1k tok"});
    for (Run &run : sweep) {
        const std::string name = kPrefixModeNames.name(run.mode);
        ServerConfig cfg = runs.paged();
        cfg.prefixMode = run.mode;
        run.m = runs.serve(cfg, "prefix " + name, base);
        t.addRow({name,
                  run.m.prefixEnabled
                      ? fmtPct(100.0 * prefixHitRate(run.m))
                      : std::string("-"),
                  fmtInt(run.m.prefillTokensComputed),
                  fmt(run.m.ttft.p50, 3), fmt(run.m.ttft.p95, 3),
                  fmt(run.m.tokensPerSecond),
                  fmt(runs.usdPer1k(run.m), 5)});
    }
    t.print(std::cout);

    const ServeMetrics &off = sweep[0].m;
    std::cout << "\nprefix sweep (JSON):\n";
    JsonWriter json(std::cout);
    json.beginObject();
    json.field("pool_blocks", kPoolBlocks);
    json.field("block_tokens", kBlockTokens);
    json.field("tenants", mix.tenants);
    json.field("prefix_len", mix.prefixLen);
    json.field("shared_fraction", mix.sharedFraction);
    json.key("runs");
    json.beginArray();
    for (const Run &run : sweep) {
        json.beginObject();
        json.field("prefix_mode",
                   std::string(kPrefixModeNames.name(run.mode)));
        json.field("ttft_p50_s", run.m.ttft.p50);
        json.field("ttft_p95_s", run.m.ttft.p95);
        json.field("tokens_per_s", run.m.tokensPerSecond);
        json.field("makespan_s", run.m.makespan);
        json.field("prefix_hits", run.m.prefixHits);
        json.field("prefix_misses", run.m.prefixMisses);
        json.field("prefix_cached_tokens", run.m.prefixCachedTokens);
        json.field("prefill_tokens_computed",
                   run.m.prefillTokensComputed);
        json.field("prefix_evictions", run.m.prefixEvictions);
        json.field("cost_per_1k_tokens_usd", runs.usdPer1k(run.m));
        // Improvements over the cache-off baseline (positive =
        // caching won).
        json.field("ttft_p50_improvement_s", off.ttft.p50 - run.m.ttft.p50);
        json.field("ttft_p95_improvement_s", off.ttft.p95 - run.m.ttft.p95);
        json.field("prefill_tokens_saved",
                   off.prefillTokensComputed -
                       run.m.prefillTokensComputed);
        json.field("cost_per_1k_tokens_improvement_usd",
                   runs.usdPer1k(off) - runs.usdPer1k(run.m));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::cout << "\n";
}

void
runChunkSweep(Runs &runs)
{
    std::cout << "=== Chunked prefill: bounding the per-step TEE "
                 "working set ===\n";
    std::cout << "Llama2-7B bf16 on TDX, paged KV (2560 blocks x 16 "
                 "tokens); monolithic\nbaseline vs decode-priority "
                 "chunking at 64..512-token slices\n\n";

    const std::vector<Request> base =
        generateWorkload(serveSeedWorkload());

    struct Run
    {
        std::string name;
        unsigned chunkTokens; //!< 0 = chunking off
        ServeMetrics m{};
    };
    std::vector<Run> sweep;
    sweep.push_back({kChunkModeNames.name(ChunkMode::Off), 0});
    for (unsigned chunk : {64u, 128u, 256u, 512u})
        sweep.push_back({"chunk " + std::to_string(chunk), chunk});

    Table t({"schedule", "max step pf", "TTFT p50 [s]", "TTFT p99 [s]",
             "ITL p50 [ms]", "ITL p99 [ms]", "tok/s", "$/1k tok"});
    for (Run &run : sweep) {
        ServerConfig cfg = runs.paged();
        if (run.chunkTokens) {
            cfg.chunkedPrefill.mode = ChunkMode::DecodePriority;
            cfg.chunkedPrefill.chunkTokens = run.chunkTokens;
        }
        run.m = runs.serve(cfg, "chunk " + run.name, base);
        t.addRow({run.name, fmtInt(run.m.maxStepPrefillTokens),
                  fmt(run.m.ttft.p50, 3), fmt(run.m.ttft.p99, 3),
                  fmt(1e3 * run.m.itl.p50, 1),
                  fmt(1e3 * run.m.itl.p99, 1),
                  fmt(run.m.tokensPerSecond),
                  fmt(runs.usdPer1k(run.m), 5)});
    }
    t.print(std::cout);

    const ServeMetrics &off = sweep[0].m;
    std::cout << "\nchunk sweep (JSON):\n";
    JsonWriter json(std::cout);
    json.beginObject();
    json.field("pool_blocks", kPoolBlocks);
    json.field("block_tokens", kBlockTokens);
    json.field("mode", std::string(kChunkModeNames.name(
                           ChunkMode::DecodePriority)));
    json.key("runs");
    json.beginArray();
    for (const Run &run : sweep) {
        json.beginObject();
        json.field("chunk_tokens", run.chunkTokens);
        json.field("max_step_prefill_tokens",
                   run.m.maxStepPrefillTokens);
        json.field("ttft_p50_s", run.m.ttft.p50);
        json.field("ttft_p99_s", run.m.ttft.p99);
        json.field("itl_p50_s", run.m.itl.p50);
        json.field("itl_p99_s", run.m.itl.p99);
        json.field("tokens_per_s", run.m.tokensPerSecond);
        json.field("makespan_s", run.m.makespan);
        json.field("completed", run.m.completed);
        json.field("output_tokens", run.m.outputTokens);
        json.field("chunk_slices", run.m.chunkSlices);
        json.field("mixed_steps", run.m.mixedSteps);
        json.field("starvation_kicks", run.m.starvationKicks);
        json.field("cost_per_1k_tokens_usd", runs.usdPer1k(run.m));
        // Improvements over the monolithic baseline (positive =
        // chunking won).
        json.field("itl_p99_improvement_s", off.itl.p99 - run.m.itl.p99);
        json.field("ttft_p99_improvement_s",
                   off.ttft.p99 - run.m.ttft.p99);
        json.field("cost_per_1k_tokens_improvement_usd",
                   runs.usdPer1k(off) - runs.usdPer1k(run.m));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::cout << "\n";
}

void
runSpecSweep(Runs &runs, const SpecDecodePolicy &spec)
{
    std::cout << "=== Speculative decoding: amortizing per-step TEE "
                 "overheads ===\n";
    std::cout << "Llama2-7B bf16 on TDX, paged KV (2560 blocks x 16 "
                 "tokens); non-speculative\nbaseline vs draft depth "
                 "k = 1..8 (draft cost ratio "
              << fmt(spec.draftCostRatio, 2) << ", acceptance "
              << fmt(spec.acceptProb, 2) << ")\n\n";

    // The seed trace backed off to 0.40 req/s: at 0.45 the queue is
    // saturated enough that monolithic-prefill stalls, not decode
    // cadence, set the ITL tail, and deep drafts cannot shift it.
    WorkloadConfig load = serveSeedWorkload();
    load.arrivalRate = 0.40;
    const std::vector<Request> base = generateWorkload(load);

    struct Run
    {
        std::string name;
        unsigned draftTokens; //!< 0 = speculation off
        ServeMetrics m{};
    };
    std::vector<Run> sweep;
    sweep.push_back({"off", 0});
    for (unsigned k = 1; k <= 8; ++k)
        sweep.push_back({"k=" + std::to_string(k), k});

    Table t({"run", "target steps", "mean acc len", "ITL p50 [ms]",
             "ITL p99 [ms]", "tok/s", "$/1k tok"});
    for (Run &run : sweep) {
        ServerConfig cfg = runs.paged();
        if (run.draftTokens) {
            cfg.specDecode = spec;
            cfg.specDecode.enabled = true;
            cfg.specDecode.draftTokens = run.draftTokens;
        }
        run.m = runs.serve(cfg, "spec " + run.name, base);
        t.addRow({run.name, fmtInt(run.m.decodeSteps),
                  run.draftTokens ? fmt(specMeanAcceptedLen(run.m), 2)
                                  : std::string("-"),
                  fmt(1e3 * run.m.itl.p50, 1),
                  fmt(1e3 * run.m.itl.p99, 1),
                  fmt(run.m.tokensPerSecond),
                  fmt(runs.usdPer1k(run.m), 5)});
    }
    t.print(std::cout);

    const ServeMetrics &off = sweep[0].m;
    std::cout << "\nspec sweep (JSON):\n";
    JsonWriter json(std::cout);
    json.beginObject();
    json.field("pool_blocks", kPoolBlocks);
    json.field("block_tokens", kBlockTokens);
    json.field("draft_cost_ratio", spec.draftCostRatio);
    json.field("accept_prob", spec.acceptProb);
    json.key("runs");
    json.beginArray();
    for (const Run &run : sweep) {
        json.beginObject();
        json.field("draft_tokens", run.draftTokens);
        json.field("spec_verify_steps", run.m.specVerifySteps);
        json.field("spec_draft_tokens", run.m.specDraftTokens);
        json.field("spec_accepted_tokens", run.m.specAccepted);
        json.field("spec_rejected_tokens", run.m.specRejected);
        json.field("spec_bonus_tokens", run.m.specBonus);
        json.field("spec_mean_accepted_len",
                   specMeanAcceptedLen(run.m));
        json.field("decode_steps", run.m.decodeSteps);
        json.field("itl_p50_s", run.m.itl.p50);
        json.field("itl_p99_s", run.m.itl.p99);
        json.field("tokens_per_s", run.m.tokensPerSecond);
        json.field("makespan_s", run.m.makespan);
        json.field("completed", run.m.completed);
        json.field("output_tokens", run.m.outputTokens);
        json.field("cost_per_1k_tokens_usd", runs.usdPer1k(run.m));
        // Improvements over the non-speculative baseline (positive =
        // speculation won).
        json.field("itl_p50_improvement_s", off.itl.p50 - run.m.itl.p50);
        json.field("itl_p99_improvement_s", off.itl.p99 - run.m.itl.p99);
        json.field("cost_per_1k_tokens_improvement_usd",
                   runs.usdPer1k(off) - runs.usdPer1k(run.m));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::cout << "\n";
}

void
runSloStudy(Runs &runs, const ServerConfig &from_flags)
{
    std::cout << "=== Serving extension: SLO attainment under TEEs "
                 "===\n";
    std::cout << "Llama2-7B bf16; Poisson arrivals; TTFT SLO 2 s, "
                 "TPOT SLO 200 ms/token\n\n";

    // Each run builds a fresh step model from its deployment's
    // factory; Server owns the model it is given.
    struct Deployment
    {
        const char *name;
        std::function<std::unique_ptr<StepModel>()> make;
    };
    const Deployment deployments[] = {
        {"CPU bare",
         [&] {
             return makeCpuStepModel(runs.cpu,
                                     sharedBackend(tee::makeBareMetal()),
                                     runs.model, runs.deploy);
         }},
        {"CPU TDX", [&] { return runs.tdx(); }},
        {"GPU raw",
         [&] {
             return makeGpuStepModel(hw::h100Nvl(), false, runs.model,
                                     hw::Dtype::Bf16);
         }},
        {"cGPU",
         [&] {
             return makeGpuStepModel(hw::h100Nvl(), true, runs.model,
                                     hw::Dtype::Bf16);
         }},
    };

    for (BatchPolicy policy :
         {BatchPolicy::Continuous, BatchPolicy::Static}) {
        std::cout << "--- " << batchPolicyName(policy)
                  << " batching ---\n";
        Table t({"deployment", "tok/s", "TTFT p50 [s]", "TTFT p95 [s]",
                 "TPOT p95 [ms]", "SLO attainment", "avg batch"});
        for (const Deployment &d : deployments) {
            ServerConfig cfg;
            cfg.policy = policy;
            // The static-batch rows are the paper's fixed-batch
            // baseline, so they stay monolithic and non-speculative
            // by choice; the engine would serve either feature.
            if (policy == BatchPolicy::Continuous) {
                cfg.chunkedPrefill = from_flags.chunkedPrefill;
                cfg.specDecode = from_flags.specDecode;
            }
            const ServeMetrics m = runs.serve(
                d.make(), cfg,
                std::string(batchPolicyName(policy)) + " / " + d.name,
                generateWorkload(serveSeedWorkload()));
            t.addRow({d.name, fmt(m.tokensPerSecond),
                      fmt(m.ttft.p50, 2), fmt(m.ttft.p95, 2),
                      fmt(1e3 * m.tpot.p95, 1),
                      fmtPct(100.0 * m.sloAttainment),
                      fmt(m.meanBatchOccupancy, 1)});
        }
        t.print(std::cout);
        std::cout << "\n";
    }
}

/** The study a run performs; the study flags are mutually exclusive. */
enum class Study
{
    Slo,
    Faults,
    KvSweep,
    PrefixSweep,
    ChunkSweep,
    SpecSweep,
};

/** The optional flag groups, as bits of a study's `reads` mask. */
enum Group : unsigned
{
    kMixFlags,
    kChunkFlags,
    kSpecFlags,
    kDraftFlags,
    kGroups,
};

/** Per Study, in order: what picks it and the flag groups it reads. */
struct StudyRow
{
    const char *flag;
    unsigned reads;
};
constexpr StudyRow kStudies[] = {
    {"the SLO study",
     1u << kChunkFlags | 1u << kSpecFlags | 1u << kDraftFlags},
    {"--faults", 0},
    {"--kv-sweep", 0},
    {"--prefix-sweep", 1u << kMixFlags},
    {"--chunk-sweep", 0},
    {"--spec-sweep", 1u << kDraftFlags},
};

} // namespace

int
main(int argc, char **argv)
{
    Study study = Study::Slo;
    std::uint64_t fault_seed = 1;
    SharedPrefixMix mix;
    ServerConfig from_flags; // chunk and spec policies of the SLO runs
    bench::ObsOptions opt;
    std::string used[kGroups]; // per group, a flag given from it
    const Flags flags = concatFlags({
        {
            {"--faults", "[seed]",
             "run the resilience experiment (seeded fault schedule "
             "against a TDX deployment, with and without the "
             "resilience policy) instead of the SLO sweep "
             "(default seed " +
                 std::to_string(fault_seed) + ")",
             [&](const char *v) {
                 study = Study::Faults;
                 if (v)
                     fault_seed =
                         parseNumber<std::uint64_t>("--faults", v);
             },
             &study},
            pickFlag("--kv-sweep", study, Study::KvSweep,
                     "run the paged-vs-reserved KV discipline sweep "
                     "(fixed pool sizes; recompute and swap-to-EPC "
                     "preemption)"),
            pickFlag("--prefix-sweep", study, Study::PrefixSweep,
                     "run the prefix-caching sweep (" +
                         kPrefixModeNames.choices() +
                         " sharing on a shared-system-prompt mix; TTFT "
                         "and $/1k-token deltas); honours the "
                         "--prefix-* mix flags"),
            pickFlag("--chunk-sweep", study, Study::ChunkSweep,
                     "run the chunked-prefill sweep (monolithic "
                     "baseline vs 64..512-token slices; TTFT/ITL "
                     "percentiles, max single-step prefill tokens, "
                     "$/1k-token deltas)"),
            pickFlag("--spec-sweep", study, Study::SpecSweep,
                     "run the speculative-decoding sweep (draft depth "
                     "k = 1..8 vs a non-speculative baseline; accepted "
                     "length, verify steps, ITL percentiles, "
                     "$/1k-token deltas); honours --spec-ratio / "
                     "--spec-accept"),
        },
        noteUse(bench::prefixMixFlags(mix), used[kMixFlags]),
        noteUse(bench::chunkFlags(from_flags.chunkedPrefill),
                used[kChunkFlags]),
        noteUse(bench::specFlags(from_flags.specDecode),
                used[kSpecFlags]),
        noteUse(bench::draftFlags(from_flags.specDecode),
                used[kDraftFlags]),
        bench::obsFlags(opt),
    });
    parseFlags(
        "serve_slo",
        "Replays a seeded Poisson trace against CPU (bare, TDX) and GPU\n"
        "(raw, cGPU) deployments under continuous and static batching and\n"
        "reports TTFT/TPOT percentiles and SLO attainment. A study flag\n"
        "(--faults or a --*-sweep) runs that study instead; at most one.\n"
        "A flag the chosen study does not read is an error.",
        flags, argc, argv);
    const StudyRow &row = kStudies[static_cast<unsigned>(study)];
    for (unsigned g = 0; g < kGroups; ++g)
        if (!used[g].empty() && !(row.reads & 1u << g))
            cllm_fatal(row.flag, " does not read ", used[g]);

    Runs runs(opt);
    switch (study) {
      case Study::Slo:
        runSloStudy(runs, from_flags);
        break;
      case Study::Faults:
        runFaultStudy(runs, fault_seed);
        break;
      case Study::KvSweep:
        runKvSweep(runs);
        break;
      case Study::PrefixSweep:
        runPrefixSweep(runs, mix);
        break;
      case Study::ChunkSweep:
        runChunkSweep(runs);
        break;
      case Study::SpecSweep:
        runSpecSweep(runs, from_flags.specDecode);
        break;
    }
    return runs.finish();
}
