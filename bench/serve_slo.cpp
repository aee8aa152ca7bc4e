/**
 * @file
 * Serving extension: online SLO behaviour of confidential deployments
 * — an operational reading of Insight 11. Replays a Poisson trace
 * against CPU (bare/TDX) and GPU (raw/cGPU) deployments under static
 * and continuous batching, reporting TTFT/TPOT percentiles, SLO
 * attainment (200 ms/token, the paper's reading-speed bar), and
 * sustained tokens/s.
 *
 * With `--faults [seed]`, instead runs the resilience experiment: a
 * seeded fault schedule (attestation failures, enclave restarts, EPC
 * paging storms, KV exhaustion) is injected into a TDX deployment
 * under a retry/timeout/shedding policy, reporting availability,
 * retries, sheds, and downtime, plus the JSON event timeline.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.hh"
#include "cost/pricing.hh"
#include "fault/schedule.hh"
#include "obs/chrome_export.hh"
#include "obs/trace.hh"
#include "serve/serving.hh"
#include "util/json.hh"
#include "util/table.hh"

using namespace cllm;
using namespace cllm::serve;
using bench::serveDeployParams;
using bench::serveSeedWorkload;
using bench::sharedBackend;

namespace {

void
usage(std::ostream &os)
{
    os << "usage: serve_slo [--faults [seed]] [--kv-sweep] "
          "[--prefix-sweep] [--chunk-sweep] [--spec-sweep] "
          "[--trace [path]] [--metrics-out path]\n\n"
          "  --faults [seed]     run the resilience experiment "
          "(seeded fault schedule\n"
          "                      against a TDX deployment) instead of "
          "the SLO sweep;\n"
          "                      seed defaults to 1\n"
          "  --kv-sweep          run the paged-vs-reserved KV "
          "discipline sweep (fixed\n"
          "                      pool sizes; recompute and "
          "swap-to-EPC preemption)\n"
          "  --prefix-sweep      run the prefix-caching sweep "
          "(off/per_tenant/global\n"
          "                      sharing on a shared-system-prompt "
          "mix; TTFT and\n"
          "                      $/1k-token deltas); honours the "
          "--prefix-* mix flags\n"
          "  --chunk-sweep       run the chunked-prefill sweep "
          "(monolithic baseline vs\n"
          "                      64..512-token slices; TTFT/ITL "
          "percentiles, max\n"
          "                      single-step prefill tokens, "
          "$/1k-token deltas)\n"
          "  --spec-sweep        run the speculative-decoding sweep "
          "(draft depth k = 1..8\n"
          "                      vs a non-speculative baseline; "
          "accepted length,\n"
          "                      verify steps, ITL percentiles, "
          "$/1k-token deltas);\n"
          "                      honours --spec-ratio / --spec-accept\n"
       << bench::prefixUsage() << bench::chunkUsage()
       << bench::specUsage() << bench::obsUsage();
}

/** Export the recorded trace and report where it went. */
void
finishTrace(const obs::Tracer &tracer, const bench::ObsOptions &opt)
{
    const std::string out =
        obs::traceOutputPath(opt.tracePath, "serve_slo.trace.json");
    obs::writeChromeTraceFile(out, tracer, &obs::Registry::global());
    std::cout << "wrote trace: " << out << " ("
              << tracer.simEvents().size() << " events)\n";
}

int
runFaultMode(std::uint64_t fault_seed, const bench::ObsOptions &opt)
{
    std::cout << "=== Serving under faults: resilience of a TDX "
                 "deployment ===\n";
    std::cout << "fault seed " << fault_seed
              << "; attestation failures, enclave restarts, EPC "
                 "storms, KV exhaustion\n\n";

    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const llm::RunParams deploy = serveDeployParams(cpu);
    const WorkloadConfig load = serveSeedWorkload();

    fault::FaultScheduleConfig fs;
    fs.seed = fault_seed;
    fs.horizon = 700.0;
    fs.attestFail = {1.0 / 120.0, 4.0, 0.0};
    fs.enclaveRestart = {1.0 / 250.0, 0.0, 0.0};
    fs.epcStorm = {1.0 / 90.0, 10.0,
                   fault::epcStormSlowdown(6ULL << 30, 4ULL << 30,
                                           0.5)};
    fs.kvExhaustion = {1.0 / 150.0, 15.0, 0.5};

    ServerConfig cfg;
    cfg.policy = BatchPolicy::Continuous;
    cfg.kvBlocks = 4096;
    cfg.kvBlockTokens = 16;
    cfg.faults = fault::FaultSchedule::generate(fs);
    cfg.weightBytes = model.weightBytes(hw::Dtype::Bf16);
    cfg.resilience.requestTimeout = 120.0;
    cfg.resilience.maxRetries = 3;
    cfg.resilience.retryBackoff = 0.5;
    cfg.resilience.shedOnKvPressure = true;
    cfg.resilience.shedThreshold = 0.95;
    cfg.resilience.degradedMaxBatch = 8;

    ServerConfig baseline = cfg;
    baseline.faults = {};

    // Lane 0 = fault-free baseline, lane 1 = faulty run, so both
    // request timelines land side by side in the viewer.
    obs::Tracer tracer(opt.trace ? obs::TraceMode::Sim
                                 : obs::TraceMode::Off);
    tracer.laneName(0, "TDX fault-free");
    tracer.laneName(1, "TDX + faults");

    Table t({"run", "avail", "tok/s", "TTFT p95 [s]", "retries",
             "shed", "timeout", "restarts", "downtime [s]"});
    ServeMetrics faulty;
    for (bool with_faults : {false, true}) {
        ServerConfig run_cfg = with_faults ? cfg : baseline;
        if (opt.trace) {
            run_cfg.tracer = &tracer;
            run_cfg.traceLane = with_faults ? 1 : 0;
        }
        Server server(
            makeCpuStepModel(cpu, sharedBackend(tee::makeTdx()), model,
                             deploy),
            run_cfg);
        const ServeMetrics m = server.run(generateWorkload(load));
        if (with_faults)
            faulty = m;
        t.addRow({with_faults ? "TDX + faults" : "TDX fault-free",
                  fmtPct(100.0 * m.availability),
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

    if (opt.trace)
        finishTrace(tracer, opt);
    bench::writeMetricsSnapshot(opt.metricsOut);
    return 0;
}

int
runKvSweepMode(const bench::ObsOptions &opt)
{
    std::cout << "=== Paged vs reserved KV: batch density at fixed "
                 "enclave memory ===\n";
    std::cout << "TDX deployment, Llama2-7B bf16; reserved pins "
                 "inLen+outLen blocks at admission,\n"
                 "paged admits by free-block headroom and preempts "
                 "(recompute or swap to EPC)\n\n";

    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const llm::RunParams deploy = serveDeployParams(cpu);
    const WorkloadConfig load = serveSeedWorkload();

    struct Variant
    {
        const char *name;
        KvMode mode;
        KvPreemptPolicy preempt;
    };
    const Variant variants[] = {
        {"reserved", KvMode::Reserved, KvPreemptPolicy::Recompute},
        {"paged/recompute", KvMode::Paged,
         KvPreemptPolicy::Recompute},
        {"paged/swap-epc", KvMode::Paged, KvPreemptPolicy::SwapToEpc},
    };

    obs::Tracer tracer(opt.trace ? obs::TraceMode::Sim
                                 : obs::TraceMode::Off);
    std::uint32_t lane = 0;

    for (std::uint64_t blocks : {768ULL, 1280ULL, 2560ULL}) {
        std::cout << "--- KV pool: " << blocks << " blocks x 16 "
                  << "tokens ---\n";
        Table t({"discipline", "completed", "tok/s", "TTFT p95 [s]",
                 "peak batch", "KV mean", "KV peak", "preempts",
                 "swap [s]"});
        for (const Variant &v : variants) {
            ServerConfig cfg;
            cfg.policy = BatchPolicy::Continuous;
            cfg.kvBlocks = blocks;
            cfg.kvBlockTokens = 16;
            cfg.kvMode = v.mode;
            cfg.paged.preempt = v.preempt;
            cfg.paged.kvBytesPerToken =
                model.kvBytesPerToken(hw::Dtype::Bf16);
            if (opt.trace) {
                cfg.tracer = &tracer;
                cfg.traceLane = lane;
                tracer.laneName(lane,
                                std::to_string(blocks) + " blk / " +
                                    v.name);
            }
            ++lane;
            Server server(
                makeCpuStepModel(cpu, sharedBackend(tee::makeTdx()),
                                 model, deploy),
                cfg);
            const ServeMetrics m = server.run(generateWorkload(load));
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
    if (opt.trace)
        finishTrace(tracer, opt);
    bench::writeMetricsSnapshot(opt.metricsOut);
    return 0;
}

int
runPrefixSweepMode(const bench::PrefixOptions &popt,
                   const bench::ObsOptions &opt)
{
    std::cout << "=== Prefix caching: radix-tree KV reuse on a TDX "
                 "deployment ===\n";
    std::cout << "Llama2-7B bf16, paged KV (2560 blocks x 16 "
                 "tokens); shared-system-prompt mix:\n"
              << popt.mix.tenants << " tenants, "
              << popt.mix.promptsPerTenant << " prompts/tenant, "
              << popt.mix.prefixLen << "-token shared prefixes, "
              << fmtPct(100.0 * popt.mix.sharedFraction)
              << " of requests shared\n\n";

    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const llm::RunParams deploy = serveDeployParams(cpu);

    std::vector<Request> base = generateWorkload(serveSeedWorkload());
    applySharedPrefixMix(base, popt.mix);

    // Spot-priced node bill, so the prefill seconds a cache hit
    // saves show up as a $/1k-token delta.
    const double instance_hr = cost::cpuInstanceHr(
        cost::gcpSpotUsEast1(), deploy.cores, 256.0);

    obs::Tracer tracer(opt.trace ? obs::TraceMode::Sim
                                 : obs::TraceMode::Off);
    std::uint32_t lane = 0;

    struct Run
    {
        const char *name;
        PrefixMode mode;
        ServeMetrics m{};
        double usdPer1k = 0.0;
    };
    Run runs[] = {
        {"off", PrefixMode::Off},
        {"per_tenant", PrefixMode::PerTenant},
        {"global", PrefixMode::Global},
    };

    Table t({"prefix mode", "hit rate", "prefill tok", "TTFT p50 [s]",
             "TTFT p95 [s]", "tok/s", "$/1k tok"});
    for (Run &run : runs) {
        ServerConfig cfg;
        cfg.policy = BatchPolicy::Continuous;
        cfg.kvBlocks = 2560;
        cfg.kvBlockTokens = 16;
        cfg.kvMode = KvMode::Paged;
        cfg.paged.kvBytesPerToken =
            model.kvBytesPerToken(hw::Dtype::Bf16);
        cfg.prefixMode = run.mode;
        if (opt.trace) {
            cfg.tracer = &tracer;
            cfg.traceLane = lane;
            tracer.laneName(lane, std::string("prefix ") + run.name);
        }
        ++lane;
        Server server(
            makeCpuStepModel(cpu, sharedBackend(tee::makeTdx()),
                             model, deploy),
            cfg);
        run.m = server.run(base);
        run.usdPer1k = cost::costPer1kTokens(
            run.m.outputTokens,
            cost::nodeSecondsUsd(instance_hr, run.m.makespan));
        const std::size_t matches =
            run.m.prefixHits + run.m.prefixMisses;
        t.addRow({run.name,
                  matches ? fmtPct(100.0 * run.m.prefixHits /
                                   static_cast<double>(matches))
                          : std::string("-"),
                  fmtInt(run.m.prefillTokensComputed),
                  fmt(run.m.ttft.p50, 3), fmt(run.m.ttft.p95, 3),
                  fmt(run.m.tokensPerSecond),
                  fmt(run.usdPer1k, 5)});
    }
    t.print(std::cout);

    const Run &off = runs[0];
    std::cout << "\nprefix sweep (JSON):\n";
    JsonWriter json(std::cout);
    json.beginObject();
    json.field("pool_blocks", 2560);
    json.field("block_tokens", 16);
    json.field("tenants", popt.mix.tenants);
    json.field("prefix_len", popt.mix.prefixLen);
    json.field("shared_fraction", popt.mix.sharedFraction);
    json.key("runs");
    json.beginArray();
    for (const Run &run : runs) {
        json.beginObject();
        json.field("prefix_mode", std::string(run.name));
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
        json.field("cost_per_1k_tokens_usd", run.usdPer1k);
        // Improvements over the cache-off baseline (positive =
        // caching won).
        json.field("ttft_p50_improvement_s",
                   off.m.ttft.p50 - run.m.ttft.p50);
        json.field("ttft_p95_improvement_s",
                   off.m.ttft.p95 - run.m.ttft.p95);
        json.field("prefill_tokens_saved",
                   off.m.prefillTokensComputed -
                       run.m.prefillTokensComputed);
        json.field("cost_per_1k_tokens_improvement_usd",
                   off.usdPer1k - run.usdPer1k);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::cout << "\n";

    if (opt.trace)
        finishTrace(tracer, opt);
    bench::writeMetricsSnapshot(opt.metricsOut);
    return 0;
}

int
runChunkSweepMode(const bench::ObsOptions &opt)
{
    std::cout << "=== Chunked prefill: bounding the per-step TEE "
                 "working set ===\n";
    std::cout << "Llama2-7B bf16 on TDX, paged KV (2560 blocks x 16 "
                 "tokens); monolithic\nbaseline vs decode-priority "
                 "chunking at 64..512-token slices\n\n";

    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const llm::RunParams deploy = serveDeployParams(cpu);
    const std::vector<Request> base =
        generateWorkload(serveSeedWorkload());

    // Spot-priced node bill so the latency shift prices out as a
    // $/1k-token delta, mirroring the prefix sweep.
    const double instance_hr = cost::cpuInstanceHr(
        cost::gcpSpotUsEast1(), deploy.cores, 256.0);

    obs::Tracer tracer(opt.trace ? obs::TraceMode::Sim
                                 : obs::TraceMode::Off);
    std::uint32_t lane = 0;

    struct Run
    {
        std::string name;
        unsigned chunkTokens; //!< 0 = chunking off
        ServeMetrics m{};
        double usdPer1k = 0.0;
    };
    std::vector<Run> runs;
    runs.push_back({"off", 0});
    for (unsigned chunk : {64u, 128u, 256u, 512u})
        runs.push_back({"chunk " + std::to_string(chunk), chunk});

    Table t({"schedule", "max step pf", "TTFT p50 [s]", "TTFT p99 [s]",
             "ITL p50 [ms]", "ITL p99 [ms]", "tok/s", "$/1k tok"});
    for (Run &run : runs) {
        ServerConfig cfg;
        cfg.policy = BatchPolicy::Continuous;
        cfg.kvBlocks = 2560;
        cfg.kvBlockTokens = 16;
        cfg.kvMode = KvMode::Paged;
        cfg.paged.kvBytesPerToken =
            model.kvBytesPerToken(hw::Dtype::Bf16);
        if (run.chunkTokens) {
            cfg.chunkedPrefill.mode = ChunkMode::DecodePriority;
            cfg.chunkedPrefill.chunkTokens = run.chunkTokens;
        }
        if (opt.trace) {
            cfg.tracer = &tracer;
            cfg.traceLane = lane;
            tracer.laneName(lane, "chunk " + run.name);
        }
        ++lane;
        Server server(
            makeCpuStepModel(cpu, sharedBackend(tee::makeTdx()),
                             model, deploy),
            cfg);
        run.m = server.run(base);
        run.usdPer1k = cost::costPer1kTokens(
            run.m.outputTokens,
            cost::nodeSecondsUsd(instance_hr, run.m.makespan));
        t.addRow({run.name, fmtInt(run.m.maxStepPrefillTokens),
                  fmt(run.m.ttft.p50, 3), fmt(run.m.ttft.p99, 3),
                  fmt(1e3 * run.m.itl.p50, 1),
                  fmt(1e3 * run.m.itl.p99, 1),
                  fmt(run.m.tokensPerSecond),
                  fmt(run.usdPer1k, 5)});
    }
    t.print(std::cout);

    const Run &off = runs[0];
    std::cout << "\nchunk sweep (JSON):\n";
    JsonWriter json(std::cout);
    json.beginObject();
    json.field("pool_blocks", 2560);
    json.field("block_tokens", 16);
    json.field("mode", std::string("decode"));
    json.key("runs");
    json.beginArray();
    for (const Run &run : runs) {
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
        json.field("cost_per_1k_tokens_usd", run.usdPer1k);
        // Improvements over the monolithic baseline (positive =
        // chunking won).
        json.field("itl_p99_improvement_s",
                   off.m.itl.p99 - run.m.itl.p99);
        json.field("ttft_p99_improvement_s",
                   off.m.ttft.p99 - run.m.ttft.p99);
        json.field("cost_per_1k_tokens_improvement_usd",
                   off.usdPer1k - run.usdPer1k);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::cout << "\n";

    if (opt.trace)
        finishTrace(tracer, opt);
    bench::writeMetricsSnapshot(opt.metricsOut);
    return 0;
}

int
runSpecSweepMode(const bench::SpecOptions &sopt,
                 const bench::ObsOptions &opt)
{
    std::cout << "=== Speculative decoding: amortizing per-step TEE "
                 "overheads ===\n";
    std::cout << "Llama2-7B bf16 on TDX, paged KV (2560 blocks x 16 "
                 "tokens); non-speculative\nbaseline vs draft depth "
                 "k = 1..8 (draft cost ratio "
              << fmt(sopt.draftCostRatio, 2) << ", acceptance "
              << fmt(sopt.acceptProb, 2) << ")\n\n";

    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const llm::RunParams deploy = serveDeployParams(cpu);
    // The seed trace backed off to 0.40 req/s: at 0.45 the queue is
    // saturated enough that monolithic-prefill stalls, not decode
    // cadence, set the ITL tail, and deep drafts cannot shift it.
    WorkloadConfig load = serveSeedWorkload();
    load.arrivalRate = 0.40;
    const std::vector<Request> base = generateWorkload(load);

    // Spot-priced node bill so fewer target steps price out as a
    // $/1k-token delta, mirroring the chunk sweep.
    const double instance_hr = cost::cpuInstanceHr(
        cost::gcpSpotUsEast1(), deploy.cores, 256.0);

    obs::Tracer tracer(opt.trace ? obs::TraceMode::Sim
                                 : obs::TraceMode::Off);
    std::uint32_t lane = 0;

    struct Run
    {
        std::string name;
        unsigned draftTokens; //!< 0 = speculation off
        ServeMetrics m{};
        double usdPer1k = 0.0;
    };
    std::vector<Run> runs;
    runs.push_back({"off", 0});
    for (unsigned k = 1; k <= 8; ++k)
        runs.push_back({"k=" + std::to_string(k), k});

    Table t({"run", "target steps", "mean acc len", "ITL p50 [ms]",
             "ITL p99 [ms]", "tok/s", "$/1k tok"});
    for (Run &run : runs) {
        ServerConfig cfg;
        cfg.policy = BatchPolicy::Continuous;
        cfg.kvBlocks = 2560;
        cfg.kvBlockTokens = 16;
        cfg.kvMode = KvMode::Paged;
        cfg.paged.kvBytesPerToken =
            model.kvBytesPerToken(hw::Dtype::Bf16);
        if (run.draftTokens) {
            bench::SpecOptions per_k = sopt;
            per_k.enabled = true;
            per_k.draftTokens = run.draftTokens;
            bench::applySpecDecode(cfg, per_k);
        }
        if (opt.trace) {
            cfg.tracer = &tracer;
            cfg.traceLane = lane;
            tracer.laneName(lane, "spec " + run.name);
        }
        ++lane;
        Server server(
            makeCpuStepModel(cpu, sharedBackend(tee::makeTdx()),
                             model, deploy),
            cfg);
        run.m = server.run(base);
        run.usdPer1k = cost::costPer1kTokens(
            run.m.outputTokens,
            cost::nodeSecondsUsd(instance_hr, run.m.makespan));
        // Per-sequence verify cycles end in a bonus token or a
        // rejection resample, so their sum counts cycles.
        const std::uint64_t cycles =
            run.m.specBonus + run.m.specRejected;
        const double mean_acc =
            cycles ? static_cast<double>(run.m.specAccepted) /
                         static_cast<double>(cycles)
                   : 0.0;
        t.addRow({run.name, fmtInt(run.m.decodeSteps),
                  run.draftTokens ? fmt(mean_acc, 2)
                                  : std::string("-"),
                  fmt(1e3 * run.m.itl.p50, 1),
                  fmt(1e3 * run.m.itl.p99, 1),
                  fmt(run.m.tokensPerSecond),
                  fmt(run.usdPer1k, 5)});
    }
    t.print(std::cout);

    const Run &off = runs[0];
    std::cout << "\nspec sweep (JSON):\n";
    JsonWriter json(std::cout);
    json.beginObject();
    json.field("pool_blocks", 2560);
    json.field("block_tokens", 16);
    json.field("draft_cost_ratio", sopt.draftCostRatio);
    json.field("accept_prob", sopt.acceptProb);
    json.key("runs");
    json.beginArray();
    for (const Run &run : runs) {
        json.beginObject();
        json.field("draft_tokens", run.draftTokens);
        json.field("spec_verify_steps", run.m.specVerifySteps);
        json.field("spec_draft_tokens", run.m.specDraftTokens);
        json.field("spec_accepted_tokens", run.m.specAccepted);
        json.field("spec_rejected_tokens", run.m.specRejected);
        json.field("spec_bonus_tokens", run.m.specBonus);
        json.field("spec_mean_accepted_len",
                   run.m.specBonus + run.m.specRejected
                       ? static_cast<double>(run.m.specAccepted) /
                             static_cast<double>(run.m.specBonus +
                                                 run.m.specRejected)
                       : 0.0);
        json.field("decode_steps", run.m.decodeSteps);
        json.field("itl_p50_s", run.m.itl.p50);
        json.field("itl_p99_s", run.m.itl.p99);
        json.field("tokens_per_s", run.m.tokensPerSecond);
        json.field("makespan_s", run.m.makespan);
        json.field("completed", run.m.completed);
        json.field("output_tokens", run.m.outputTokens);
        json.field("cost_per_1k_tokens_usd", run.usdPer1k);
        // Improvements over the non-speculative baseline (positive =
        // speculation won).
        json.field("itl_p50_improvement_s",
                   off.m.itl.p50 - run.m.itl.p50);
        json.field("itl_p99_improvement_s",
                   off.m.itl.p99 - run.m.itl.p99);
        json.field("cost_per_1k_tokens_improvement_usd",
                   off.usdPer1k - run.usdPer1k);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::cout << "\n";

    if (opt.trace)
        finishTrace(tracer, opt);
    bench::writeMetricsSnapshot(opt.metricsOut);
    return 0;
}

int
runSloMode(const bench::ChunkOptions &copt,
           const bench::SpecOptions &sopt,
           const bench::ObsOptions &opt)
{
    std::cout << "=== Serving extension: SLO attainment under TEEs "
                 "===\n";
    std::cout << "Llama2-7B bf16; Poisson arrivals; TTFT SLO 2 s, "
                 "TPOT SLO 200 ms/token\n\n";

    const hw::CpuSpec cpu = hw::emr2();
    const llm::ModelConfig model = llm::llama2_7b();
    const llm::RunParams deploy = serveDeployParams(cpu);
    const WorkloadConfig load = serveSeedWorkload();

    struct Deployment
    {
        std::string name;
        std::unique_ptr<StepModel> step;
    };
    std::vector<Deployment> deployments;
    deployments.push_back(
        {"CPU bare", makeCpuStepModel(cpu, sharedBackend(tee::makeBareMetal()),
                                      model, deploy)});
    deployments.push_back(
        {"CPU TDX", makeCpuStepModel(cpu, sharedBackend(tee::makeTdx()), model,
                                     deploy)});
    deployments.push_back(
        {"GPU raw", makeGpuStepModel(hw::h100Nvl(), false, model,
                                     hw::Dtype::Bf16)});
    deployments.push_back(
        {"cGPU", makeGpuStepModel(hw::h100Nvl(), true, model,
                                  hw::Dtype::Bf16)});

    // One trace lane per (policy, deployment) run.
    obs::Tracer tracer(opt.trace ? obs::TraceMode::Sim
                                 : obs::TraceMode::Off);
    std::uint32_t lane = 0;

    for (BatchPolicy policy :
         {BatchPolicy::Continuous, BatchPolicy::Static}) {
        std::cout << "--- " << batchPolicyName(policy)
                  << " batching ---\n";
        Table t({"deployment", "tok/s", "TTFT p50 [s]", "TTFT p95 [s]",
                 "TPOT p95 [ms]", "SLO attainment", "avg batch"});
        for (auto &d : deployments) {
            ServerConfig cfg;
            cfg.policy = policy;
            // Chunked prefill and speculative decoding require
            // continuous batching; the static-batch rows stay
            // monolithic and non-speculative.
            if (policy == BatchPolicy::Continuous) {
                bench::applyChunkedPrefill(cfg, copt);
                if (sopt.enabled)
                    bench::applySpecDecode(cfg, sopt);
            }
            if (opt.trace) {
                cfg.tracer = &tracer;
                cfg.traceLane = lane;
                tracer.laneName(lane, std::string(
                                          batchPolicyName(policy)) +
                                          " / " + d.name);
            }
            ++lane;
            // Re-create the step models per run is unnecessary; Server
            // borrows, so build a fresh server around the same model.
            Server server(
                d.name.rfind("CPU", 0) == 0
                    ? makeCpuStepModel(
                          cpu,
                          sharedBackend(d.name == "CPU TDX"
                                     ? tee::makeTdx()
                                     : tee::makeBareMetal()),
                          model, deploy)
                    : makeGpuStepModel(hw::h100Nvl(), d.name == "cGPU",
                                       model, hw::Dtype::Bf16),
                cfg);
            const ServeMetrics m = server.run(generateWorkload(load));
            t.addRow({d.name, fmt(m.tokensPerSecond),
                      fmt(m.ttft.p50, 2), fmt(m.ttft.p95, 2),
                      fmt(1e3 * m.tpot.p95, 1),
                      fmtPct(100.0 * m.sloAttainment),
                      fmt(m.meanBatchOccupancy, 1)});
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    if (opt.trace)
        finishTrace(tracer, opt);
    bench::writeMetricsSnapshot(opt.metricsOut);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsOptions opt;
    bench::PrefixOptions popt;
    bench::ChunkOptions copt;
    bench::SpecOptions sopt;
    bool fault_mode = false;
    bool kv_sweep = false;
    bool prefix_sweep = false;
    bool chunk_sweep = false;
    bool spec_sweep = false;
    std::uint64_t fault_seed = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        }
        if (std::strcmp(argv[i], "--faults") == 0) {
            fault_mode = true;
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                fault_seed = parseNumber<std::uint64_t>("--faults",
                                                        argv[++i]);
            continue;
        }
        if (std::strcmp(argv[i], "--kv-sweep") == 0) {
            kv_sweep = true;
            continue;
        }
        if (std::strcmp(argv[i], "--prefix-sweep") == 0) {
            prefix_sweep = true;
            continue;
        }
        if (std::strcmp(argv[i], "--chunk-sweep") == 0) {
            chunk_sweep = true;
            continue;
        }
        if (std::strcmp(argv[i], "--spec-sweep") == 0) {
            spec_sweep = true;
            continue;
        }
        if (bench::parsePrefixArg(popt, argc, argv, i))
            continue;
        if (bench::parseChunkArg(copt, argc, argv, i))
            continue;
        if (bench::parseSpecArg(sopt, argc, argv, i))
            continue;
        if (bench::parseObsArg(opt, argc, argv, i))
            continue;
        std::cerr << "serve_slo: unknown argument '" << argv[i]
                  << "'\n";
        usage(std::cerr);
        return 2;
    }
    if (fault_mode)
        return runFaultMode(fault_seed, opt);
    if (kv_sweep)
        return runKvSweepMode(opt);
    if (prefix_sweep)
        return runPrefixSweepMode(popt, opt);
    if (chunk_sweep)
        return runChunkSweepMode(opt);
    if (spec_sweep)
        return runSpecSweepMode(sopt, opt);
    return runSloMode(copt, sopt, opt);
}
