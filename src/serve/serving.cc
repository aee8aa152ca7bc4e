#include "serve/serving.hh"

#include <algorithm>
#include <cmath>

#include "serve/engine.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cllm::serve {

const char *
arrivalProcessName(ArrivalProcess p)
{
    switch (p) {
      case ArrivalProcess::Poisson:
        return "poisson";
      case ArrivalProcess::Deterministic:
        return "deterministic";
      case ArrivalProcess::BurstyOnOff:
        return "bursty";
    }
    return "?";
}

std::vector<Request>
generateWorkload(const WorkloadConfig &cfg)
{
    if (cfg.arrivalRate <= 0.0 || cfg.numRequests == 0)
        cllm_fatal("generateWorkload: degenerate workload");
    if (cfg.process == ArrivalProcess::BurstyOnOff &&
        (cfg.burstRateFactor <= 0.0 || cfg.idleRateFactor <= 0.0 ||
         cfg.meanOnSec <= 0.0 || cfg.meanOffSec <= 0.0))
        cllm_fatal("generateWorkload: degenerate bursty phases");
    Rng rng(cfg.seed);
    // Exponential gap at `rate`; the rejection loop and draw order
    // match the original Poisson-only generator exactly, which keeps
    // seeded Poisson traces stable across the arrival-process seam.
    auto exp_gap = [&rng](double rate) {
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        return -std::log(u) / rate;
    };
    std::vector<Request> out;
    out.reserve(cfg.numRequests);
    double clock = 0.0;
    bool on = true;
    double phase_end =
        cfg.process == ArrivalProcess::BurstyOnOff
            ? exp_gap(1.0 / cfg.meanOnSec)
            : 0.0;
    for (unsigned i = 0; i < cfg.numRequests; ++i) {
        switch (cfg.process) {
          case ArrivalProcess::Poisson:
            clock += exp_gap(cfg.arrivalRate);
            break;
          case ArrivalProcess::Deterministic:
            clock += 1.0 / cfg.arrivalRate;
            break;
          case ArrivalProcess::BurstyOnOff:
            // Modulated Poisson: draw at the current phase's rate;
            // a gap crossing the phase boundary is redrawn from the
            // boundary at the next phase's rate (memorylessness).
            for (;;) {
                const double rate =
                    cfg.arrivalRate * (on ? cfg.burstRateFactor
                                          : cfg.idleRateFactor);
                const double gap = exp_gap(rate);
                if (clock + gap <= phase_end) {
                    clock += gap;
                    break;
                }
                clock = phase_end;
                on = !on;
                phase_end =
                    clock + exp_gap(1.0 / (on ? cfg.meanOnSec
                                              : cfg.meanOffSec));
            }
            break;
        }
        Request r;
        r.id = i;
        r.arrival = clock;
        r.inLen = std::max<unsigned>(
            8, static_cast<unsigned>(
                   rng.lognormal(cfg.meanInLen, cfg.lengthSigma)));
        r.outLen = std::max<unsigned>(
            4, static_cast<unsigned>(
                   rng.lognormal(cfg.meanOutLen, cfg.lengthSigma)));
        out.push_back(r);
    }
    return out;
}

const char *
batchPolicyName(BatchPolicy p)
{
    switch (p) {
      case BatchPolicy::Static:
        return "static";
      case BatchPolicy::Continuous:
        return "continuous";
    }
    return "?";
}

const char *
kvModeName(KvMode m)
{
    switch (m) {
      case KvMode::Reserved:
        return "reserved";
      case KvMode::Paged:
        return "paged";
    }
    return "?";
}

KvMode
parseKvMode(const std::string &name)
{
    if (name == "reserved")
        return KvMode::Reserved;
    if (name == "paged")
        return KvMode::Paged;
    cllm_fatal("unknown KV mode '", name, "' (reserved|paged)");
}

const char *
kvPreemptPolicyName(KvPreemptPolicy p)
{
    switch (p) {
      case KvPreemptPolicy::Recompute:
        return "recompute";
      case KvPreemptPolicy::SwapToEpc:
        return "swap";
    }
    return "?";
}

const char *
prefixModeName(PrefixMode m)
{
    switch (m) {
      case PrefixMode::Off:
        return "off";
      case PrefixMode::PerTenant:
        return "per_tenant";
      case PrefixMode::Global:
        return "global";
    }
    return "?";
}

PrefixMode
parsePrefixMode(const std::string &name)
{
    if (name == "off")
        return PrefixMode::Off;
    if (name == "per_tenant")
        return PrefixMode::PerTenant;
    if (name == "global")
        return PrefixMode::Global;
    cllm_fatal("unknown prefix mode '", name,
               "' (off|per_tenant|global)");
}

const char *
chunkModeName(ChunkMode m)
{
    switch (m) {
      case ChunkMode::Off:
        return "off";
      case ChunkMode::DecodePriority:
        return "decode";
      case ChunkMode::PrefillPriority:
        return "prefill";
    }
    return "?";
}

ChunkMode
parseChunkMode(const std::string &name)
{
    if (name == "off")
        return ChunkMode::Off;
    if (name == "decode")
        return ChunkMode::DecodePriority;
    if (name == "prefill")
        return ChunkMode::PrefillPriority;
    cllm_fatal("unknown chunk mode '", name,
               "' (off|decode|prefill)");
}

void
applySharedPrefixMix(std::vector<Request> &trace,
                     const SharedPrefixMix &mix)
{
    if (mix.tenants == 0 || mix.promptsPerTenant == 0)
        cllm_fatal("applySharedPrefixMix: degenerate mix");
    // Token streams are split-seeded per request, never touching the
    // workload generator's RNG: annotating a trace cannot perturb
    // arrivals or lengths.
    for (Request &r : trace) {
        Rng rng(splitSeed(mix.seed, r.id));
        r.tenant = static_cast<std::uint32_t>(
            rng.uniformInt(0, mix.tenants - 1));
        const bool shared = rng.chance(mix.sharedFraction);
        const unsigned group = static_cast<unsigned>(
            rng.uniformInt(0, mix.promptsPerTenant - 1));
        const unsigned plen = std::min(mix.prefixLen, r.inLen);
        r.promptTokens.resize(r.inLen);
        for (unsigned j = 0; j < r.inLen; ++j) {
            // Shared heads are a pure function of (tenant, group,
            // position); tails and unshared prompts are unique per
            // request id.
            const std::uint64_t tok =
                (shared && j < plen)
                    ? splitSeed(splitSeed(0x9e3779b97f4a7c15ULL ^
                                              r.tenant,
                                          group),
                                j)
                    : splitSeed(splitSeed(0xc2b2ae3d27d4eb4fULL,
                                          r.id),
                                j);
            r.promptTokens[j] =
                static_cast<std::int32_t>(tok & 0x7fffffff);
        }
    }
}

namespace {

/**
 * Serving adapter over one backend's pricing kernel: every StepModel
 * virtual is one call into the kernel's decode or prefill entry point.
 */
template <typename Kernel>
class KernelStepModel : public StepModel
{
  public:
    explicit KernelStepModel(Kernel kernel) : k_(std::move(kernel)) {}

    double
    prefill(unsigned in_len) const override
    {
        return k_.prefill(1, 0, in_len, false).seconds();
    }

    double
    decodeStep(double nseq, double avg_pos) const override
    {
        return k_.decode(nseq, 1.0, avg_pos).seconds();
    }

    double
    prefillChunk(unsigned done, unsigned chunk,
                 bool shared) const override
    {
        return k_.prefill(1, done, chunk, shared).seconds();
    }

    double
    verifyStep(double nseq, double k, double avg_pos) const override
    {
        return k_.decode(nseq, k + 1.0, avg_pos + k / 2.0).seconds();
    }

  private:
    Kernel k_;
};

} // namespace

std::unique_ptr<StepModel>
makeCpuStepModel(const hw::CpuSpec &cpu,
                 std::shared_ptr<const tee::TeeBackend> backend,
                 const llm::ModelConfig &model,
                 const llm::RunParams &params)
{
    return std::make_unique<KernelStepModel<llm::CpuStepKernel>>(
        llm::CpuPerfModel().kernel(cpu, *backend, model, params));
}

std::unique_ptr<StepModel>
makeGpuStepModel(const hw::GpuSpec &gpu, bool confidential,
                 const llm::ModelConfig &model, hw::Dtype dtype)
{
    return std::make_unique<KernelStepModel<llm::GpuStepKernel>>(
        llm::GpuStepKernel(gpu, confidential, model, dtype));
}

Server::Server(std::unique_ptr<StepModel> step, ServerConfig cfg)
    : step_(std::move(step)), cfg_(std::move(cfg))
{
    if (!step_)
        cllm_fatal("Server requires a step model");
    if (cfg_.maxBatch == 0)
        cllm_fatal("Server: zero batch capacity");
    if (!cfg_.faults.empty()) {
        if (cfg_.policy == BatchPolicy::Static)
            cllm_fatal("Server: fault injection requires continuous "
                       "batching");
        if (cfg_.resilience.retryBackoff <= 0.0)
            cllm_fatal("Server: fault injection requires a positive "
                       "retry backoff");
    }
    if (cfg_.resilience.backoffMultiplier < 1.0)
        cllm_fatal("Server: backoff multiplier below 1");
    if (cfg_.resilience.shedOnKvPressure &&
        (cfg_.resilience.shedThreshold <= 0.0 ||
         cfg_.resilience.shedThreshold > 1.0))
        cllm_fatal("Server: shed threshold outside (0, 1]");
    if (cfg_.kvMode == KvMode::Paged) {
        if (cfg_.policy == BatchPolicy::Static)
            cllm_fatal("Server: paged KV requires continuous "
                       "batching");
        if (cfg_.kvBlocks == 0)
            cllm_fatal("Server: paged KV requires a bounded pool");
        if (cfg_.paged.minFreeBlocks >= cfg_.kvBlocks)
            cllm_fatal("Server: paged KV watermark swallows the "
                       "pool");
        if (cfg_.paged.preempt == KvPreemptPolicy::SwapToEpc &&
            cfg_.paged.kvBytesPerToken <= 0.0)
            cllm_fatal("Server: swap preemption requires KV bytes "
                       "per token");
    }
    if (cfg_.prefixMode != PrefixMode::Off &&
        cfg_.kvMode != KvMode::Paged)
        cllm_fatal("Server: prefix caching requires paged KV");
    if (cfg_.chunkedPrefill.mode != ChunkMode::Off) {
        if (cfg_.policy == BatchPolicy::Static)
            cllm_fatal("Server: chunked prefill requires continuous "
                       "batching");
        if (cfg_.chunkedPrefill.chunkTokens == 0)
            cllm_fatal("Server: zero chunk size");
        if (cfg_.chunkedPrefill.stepTokenBudget != 0 &&
            cfg_.chunkedPrefill.stepTokenBudget <
                cfg_.chunkedPrefill.chunkTokens)
            cllm_fatal("Server: step token budget below the chunk "
                       "size");
        if (cfg_.chunkedPrefill.starvationIters == 0)
            cllm_fatal("Server: zero starvation-guard window");
    }
    if (cfg_.specDecode.enabled) {
        if (cfg_.policy == BatchPolicy::Static)
            cllm_fatal("Server: speculative decoding requires "
                       "continuous batching");
        if (cfg_.specDecode.draftTokens == 0)
            cllm_fatal("Server: speculative decoding with zero draft "
                       "tokens");
        if (cfg_.specDecode.draftCostRatio <= 0.0 ||
            cfg_.specDecode.draftCostRatio >= 1.0)
            cllm_fatal("Server: draft cost ratio outside (0, 1)");
        if (cfg_.specDecode.acceptProb < 0.0 ||
            cfg_.specDecode.acceptProb > 1.0)
            cllm_fatal("Server: acceptance probability outside "
                       "[0, 1]");
    }
}

ServeMetrics
Server::run(std::vector<Request> trace) const
{
    std::vector<Request> annotated;
    return run(std::move(trace), annotated);
}

ServeMetrics
Server::run(std::vector<Request> trace,
            std::vector<Request> &annotated) const
{
    if (trace.empty())
        cllm_fatal("Server::run: empty trace");
    std::sort(trace.begin(), trace.end(),
              [](const Request &a, const Request &b) {
                  return a.arrival < b.arrival;
              });
    ServeMetrics m = cfg_.policy == BatchPolicy::Static
                         ? runStatic(trace)
                         : runContinuous(trace);
    annotated = std::move(trace);
    return m;
}

ServeMetrics
Server::runStatic(std::vector<Request> &trace) const
{
    double clock = 0.0;
    double occupancy_sum = 0.0;
    unsigned peak_active = 0;
    std::size_t steps = 0;
    std::size_t next = 0;

    while (next < trace.size()) {
        // Form the next batch from queued arrivals.
        clock = std::max(clock, trace[next].arrival);
        std::vector<Request *> batch;
        while (next < trace.size() && batch.size() < cfg_.maxBatch &&
               trace[next].arrival <= clock) {
            batch.push_back(&trace[next]);
            ++next;
        }

        // Prefill everyone, then decode until the whole batch drains.
        for (Request *r : batch) {
            clock += step_->prefill(r->inLen);
            r->firstToken = clock;
        }
        unsigned max_out = 0;
        for (Request *r : batch)
            max_out = std::max(max_out, r->outLen);
        for (unsigned t = 0; t < max_out; ++t) {
            unsigned active = 0;
            double avg_pos = 0.0;
            for (Request *r : batch) {
                if (t < r->outLen) {
                    ++active;
                    avg_pos += r->inLen + t;
                }
            }
            if (active == 0)
                break;
            avg_pos /= active;
            clock += step_->decodeStep(active, avg_pos);
            occupancy_sum += active;
            peak_active = std::max(peak_active, active);
            ++steps;
            for (Request *r : batch) {
                if (t + 1 == r->outLen)
                    r->finish = clock;
            }
        }
    }
    ServeMetrics m =
        finalize(trace, clock, occupancy_sum, steps, ServeTally{});
    m.peakBatchOccupancy = peak_active;
    return m;
}

ServeMetrics
Server::runContinuous(std::vector<Request> &trace) const
{
    // The loop itself lives in ContinuousEngine so the fleet layer
    // can drive the identical simulation incrementally; submitting
    // the whole trace up front and iterating to quiescence is
    // bit-identical to the historical in-place loop.
    ContinuousEngine eng(*step_, cfg_);
    for (Request &r : trace)
        eng.submit(&r, r.arrival, 0);
    while (!eng.idle())
        eng.iterate();
    ServeMetrics m = finalize(trace, eng.clock(), eng.occupancySum(),
                              eng.steps(), eng.tally());
    m.kvUtilizationPeak = eng.kvPeak();
    m.kvUtilizationMean = eng.kvUtilizationMean();
    m.peakBatchOccupancy = static_cast<double>(eng.peakBatch());
    m.faultTimeline = eng.timeline();
    return m;
}

ServeMetrics
Server::finalize(const std::vector<Request> &trace, double makespan,
                 double occupancy_sum, std::size_t steps,
                 const ServeTally &tally) const
{
    std::vector<const Request *> reqs;
    reqs.reserve(trace.size());
    for (const Request &r : trace)
        reqs.push_back(&r);
    return finalizeRequests(reqs, makespan, occupancy_sum, steps,
                            tally, cfg_.ttftSlo, cfg_.tpotSlo);
}


void
writeMetrics(JsonWriter &json, const ServeMetrics &m)
{
    json.beginObject();
    json.field("completed", m.completed);
    json.field("submitted", m.submitted);
    json.field("availability", m.availability);
    json.field("makespan_s", m.makespan);
    json.field("tokens_per_s", m.tokensPerSecond);
    json.field("output_tokens", m.outputTokens);
    json.field("ttft_p50_s", m.ttft.p50);
    json.field("ttft_p95_s", m.ttft.p95);
    json.field("tpot_p95_s", m.tpot.p95);
    json.field("slo_attainment", m.sloAttainment);
    json.field("mean_batch_occupancy", m.meanBatchOccupancy);
    json.field("peak_batch_occupancy", m.peakBatchOccupancy);
    json.field("kv_utilization_peak", m.kvUtilizationPeak);
    json.field("kv_utilization_mean", m.kvUtilizationMean);
    json.field("kv_preemptions", m.kvPreemptions);
    json.field("kv_swap_outs", m.kvSwapOuts);
    json.field("kv_swap_ins", m.kvSwapIns);
    json.field("kv_swap_s", m.kvSwapSeconds);
    if (m.prefixEnabled) {
        json.field("prefix_hits", m.prefixHits);
        json.field("prefix_misses", m.prefixMisses);
        json.field("prefix_cached_tokens", m.prefixCachedTokens);
        json.field("prefill_tokens_computed",
                   m.prefillTokensComputed);
        json.field("prefix_evictions", m.prefixEvictions);
        json.field("prefix_evicted_blocks", m.prefixEvictedBlocks);
        json.field("prefix_pinned_peak_blocks", m.prefixPinnedPeak);
    }
    if (m.chunkedEnabled) {
        json.field("itl_p50_s", m.itl.p50);
        json.field("itl_p95_s", m.itl.p95);
        json.field("itl_p99_s", m.itl.p99);
        json.field("chunk_slices", m.chunkSlices);
        json.field("chunk_prefill_tokens", m.chunkPrefillTokens);
        json.field("mixed_steps", m.mixedSteps);
        json.field("starvation_kicks", m.starvationKicks);
        json.field("max_step_prefill_tokens", m.maxStepPrefillTokens);
    }
    if (m.specEnabled) {
        json.field("spec_verify_steps", m.specVerifySteps);
        json.field("spec_draft_tokens", m.specDraftTokens);
        json.field("spec_accepted_tokens", m.specAccepted);
        json.field("spec_rejected_tokens", m.specRejected);
        json.field("spec_bonus_tokens", m.specBonus);
        // Each per-sequence verify cycle ends in either a bonus
        // token (k/k accepted) or a rejection resample, so their sum
        // counts cycles and accepted/cycles is the mean accepted
        // draft length.
        json.field("spec_mean_accepted_len",
                   m.specBonus + m.specRejected
                       ? static_cast<double>(m.specAccepted) /
                             static_cast<double>(m.specBonus +
                                                 m.specRejected)
                       : 0.0);
        // ITL is tracked in every mode but emitted by the chunked
        // block when chunking is on; spec-only runs surface it here.
        if (!m.chunkedEnabled) {
            json.field("itl_p50_s", m.itl.p50);
            json.field("itl_p95_s", m.itl.p95);
            json.field("itl_p99_s", m.itl.p99);
        }
    }
    json.field("retries", m.retries);
    json.field("shed", m.shed);
    json.field("timed_out", m.timedOut);
    json.field("failed", m.failed);
    json.field("restarts", m.restarts);
    json.field("attest_rejections", m.attestRejections);
    json.field("fault_downtime_s", m.faultDowntime);
    json.key("fault_timeline");
    fault::writeTimeline(json, m.faultTimeline);
    json.endObject();
}

} // namespace cllm::serve
