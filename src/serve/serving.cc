#include "serve/serving.hh"

#include <algorithm>
#include <cmath>

#include "serve/engine.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cllm::serve {

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
        // Shared heads are a pure function of (tenant, group,
        // position); tails and unshared prompts are unique per
        // request id.
        const std::uint64_t head_seed =
            splitSeed(0x9e3779b97f4a7c15ULL ^ r.tenant, group);
        const std::uint64_t tail_seed =
            splitSeed(0xc2b2ae3d27d4eb4fULL, r.id);
        r.promptTokens.resize(r.inLen);
        for (unsigned j = 0; j < r.inLen; ++j) {
            const std::uint64_t tok =
                splitSeed((shared && j < plen) ? head_seed : tail_seed, j);
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

void
validate(const ServerConfig &cfg)
{
    if (cfg.maxBatch == 0)
        cllm_fatal("ServerConfig: zero batch capacity");
    if (!cfg.faults.empty() && cfg.resilience.retryBackoff <= 0.0)
        cllm_fatal("ServerConfig: fault injection requires a positive "
                   "retry backoff");
    if (cfg.resilience.backoffMultiplier < 1.0)
        cllm_fatal("ServerConfig: backoff multiplier below 1");
    if (cfg.resilience.shedOnKvPressure &&
        (cfg.resilience.shedThreshold <= 0.0 ||
         cfg.resilience.shedThreshold > 1.0))
        cllm_fatal("ServerConfig: shed threshold outside (0, 1]");
    if (cfg.kvMode == KvMode::Paged) {
        if (cfg.kvBlocks == 0)
            cllm_fatal("ServerConfig: paged KV requires a bounded pool");
        if (cfg.paged.minFreeBlocks >= cfg.kvBlocks)
            cllm_fatal("ServerConfig: paged KV watermark swallows the "
                       "pool");
        if (cfg.paged.preempt == KvPreemptPolicy::SwapToEpc &&
            cfg.paged.kvBytesPerToken <= 0.0)
            cllm_fatal("ServerConfig: swap preemption requires KV bytes "
                       "per token");
    }
    if (cfg.prefixMode != PrefixMode::Off && cfg.kvMode != KvMode::Paged)
        cllm_fatal("ServerConfig: prefix caching requires paged KV");
    const ChunkedPrefillPolicy &cp = cfg.chunkedPrefill;
    if (cp.mode != ChunkMode::Off) {
        if (cp.chunkTokens == 0)
            cllm_fatal("ServerConfig: zero chunk size");
        if (cp.stepTokenBudget != 0 && cp.stepTokenBudget < cp.chunkTokens)
            cllm_fatal("ServerConfig: step token budget below the chunk "
                       "size");
        if (cp.starvationIters == 0)
            cllm_fatal("ServerConfig: zero starvation-guard window");
    }
    const SpecDecodePolicy &sp = cfg.specDecode;
    if (sp.enabled) {
        if (sp.draftTokens == 0)
            cllm_fatal("ServerConfig: speculative decoding with zero "
                       "draft tokens");
        if (sp.draftCostRatio <= 0.0 || sp.draftCostRatio >= 1.0)
            cllm_fatal("ServerConfig: draft cost ratio outside (0, 1)");
        if (sp.acceptProb < 0.0 || sp.acceptProb > 1.0)
            cllm_fatal("ServerConfig: acceptance probability outside "
                       "[0, 1]");
    }
}

Server::Server(std::unique_ptr<StepModel> step, ServerConfig cfg)
    : step_(std::move(step)), cfg_(std::move(cfg))
{
    if (!step_)
        cllm_fatal("Server requires a step model");
    validate(cfg_);
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
    // Submitting the whole trace up front and iterating to quiescence
    // is the same simulation the fleet layer drives incrementally.
    ContinuousEngine eng(*step_, cfg_);
    for (Request &r : trace)
        eng.submit(&r, r.arrival, 0);
    while (!eng.idle())
        eng.iterate();
    ServeMetrics m = eng.metrics();
    annotated = std::move(trace);
    return m;
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
    writeCounters(json, m, m.itl, CounterGroup::Kv,
                  CounterGroup::Resilience);
    json.key("fault_timeline");
    fault::writeTimeline(json, m.faultTimeline);
    json.endObject();
}

} // namespace cllm::serve
