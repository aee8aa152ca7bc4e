#include "llm/perf_cpu.hh"

#include <algorithm>
#include <cmath>

#include "mem/numa.hh"
#include "mem/tlb.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace cllm::llm {

CpuPerfModel::CpuPerfModel(CpuPerfConfig cfg) : cfg_(cfg) {}

namespace {

/** Weight bytes per parameter for a run. */
double
weightBytesPerParam(const RunParams &p)
{
    if (p.framework.weightBytesPerParam > 0.0)
        return p.framework.weightBytesPerParam;
    return hw::dtypeBytes(p.dtype);
}

} // namespace

double
CpuPerfModel::effectiveBandwidth(const hw::CpuSpec &cpu,
                                 const tee::ExecTax &tax,
                                 const RunParams &params,
                                 double working_set_bytes,
                                 double context_depth) const
{
    // NUMA placement: what the environment actually does with the
    // binding request, amplified by framework NUMA awareness.
    mem::NumaConfig ncfg = cpu.numa;
    ncfg.upiEncrypted = tax.upiEncrypted;
    mem::NumaModel numa(ncfg);
    mem::NumaPlacement placement = tax.placement;
    if (!params.framework.numaAware &&
        placement == mem::NumaPlacement::Local) {
        placement = mem::NumaPlacement::Unbound;
    }
    const mem::NumaEffective eff = numa.effective(placement,
                                                  params.sockets);

    // Bandwidth ramps with active cores per socket (concave).
    const unsigned cores = params.cores
                               ? params.cores
                               : params.sockets * cpu.coresPerSocket;
    const double cores_per_socket =
        static_cast<double>(cores) / params.sockets;
    const double ramp =
        1.0 - std::exp(-cores_per_socket / cfg_.bwSaturationCores);

    double bw = eff.bandwidthBytes * ramp * params.framework.memEff;

    // Translation (TLB/EPT) tax. The scattered-access share of the
    // traffic grows with the KV cache's share of the working set:
    // weight streaming is sequential, KV gathers are block-random.
    mem::TlbModel tlb(cpu.tlb);
    mem::AccessPattern pattern;
    pattern.workingSetBytes =
        static_cast<std::uint64_t>(working_set_bytes);
    pattern.randomFraction = 0.008 + 0.030 * context_depth;
    bw *= tlb.bandwidthFactor(bw, tax.effectivePage, tax.xlate, pattern);

    // Memory-encryption tax (TME-MK / MEE).
    bw *= tax.encBwFactor;

    // Generic virtualization memory-path tax for any nested regime.
    if (tax.xlate != mem::TranslationMode::Native)
        bw *= 1.0 - cfg_.vmMemTax;

    return bw;
}

DeploymentRates
CpuPerfModel::rates(const hw::CpuSpec &cpu, const tee::TeeBackend &backend,
                    const ModelConfig &model,
                    const RunParams &params) const
{
    const bool amx = params.amx && params.framework.supportsAmx;
    const double nseq = params.sequences();
    const double final_ctx = params.inLen + params.outLen;

    DeploymentRates r;
    r.weightBytesPerParam = weightBytesPerParam(params);
    r.actFactor = params.framework.actTrafficFactor *
                  (amx ? 1.0 : cfg_.noAmxActFactor);

    const double weight_bytes =
        static_cast<double>(model.numParams()) * r.weightBytesPerParam;
    const double kv_total =
        nseq * model.kvBytesPerToken(params.dtype) * final_ctx;

    tee::TeeRequest req;
    req.sockets = params.sockets;
    req.workingSetBytes =
        static_cast<std::uint64_t>(weight_bytes + kv_total);
    req.sncEnabled = params.sncEnabled;
    r.tax = backend.tax(cpu, req);
    r.workingSetBytes = weight_bytes + kv_total;

    const double context_depth = std::min(1.0, final_ctx / 4096.0);
    r.bw = effectiveBandwidth(cpu, r.tax, params,
                              weight_bytes + kv_total, context_depth);

    const unsigned cores = params.cores
                               ? params.cores
                               : params.sockets * cpu.coresPerSocket;
    const double peak = cpu.peakOps(params.dtype, amx, cores);
    r.decodeRate = peak *
                   params.framework.effectiveComputeEff(params.dtype) *
                   r.tax.computeFactor;
    r.prefillRate =
        peak * params.framework.prefillEff * r.tax.computeFactor;
    return r;
}

CpuStepKernel
CpuPerfModel::kernel(const hw::CpuSpec &cpu,
                     const tee::TeeBackend &backend,
                     const ModelConfig &model,
                     const RunParams &params) const
{
    return CpuStepKernel(rates(cpu, backend, model, params), model,
                         params.dtype, cfg_.overlapBeta);
}

CpuStepKernel::CpuStepKernel(const DeploymentRates &rates,
                             const ModelConfig &model, hw::Dtype dtype,
                             double overlap_beta)
    : r_(rates), totals_(model, dtype), overlap_(overlap_beta),
      weightScale_(rates.weightBytesPerParam / hw::dtypeBytes(dtype)),
      // Weight-only int8 inserts explicit dequantization kernels on
      // the hot path, inflating the per-step operator count.
      decodeFixed_(totals_.opCount() *
                   (dtype == hw::Dtype::Int8 ? 1.25 : 1.0) *
                   rates.tax.perOpFixedSec),
      weightBytes_(static_cast<double>(model.numParams()) *
                   rates.weightBytesPerParam),
      kvBytesPerToken_(model.kvBytesPerToken(dtype)),
      matmulParams_(static_cast<double>(model.matmulParams())),
      layers_(model.layers), hidden_(model.hidden)
{
}

StepCost
CpuStepKernel::decode(double seqs, double width, double depth) const
{
    const StepTotals tot = totals_.at(depth, seqs);
    const double flops = seqs * tot.flopsPerSeq * width;
    // Weights once per pass; activations and KV per scored position.
    const double weight_traffic = tot.weightBytes * weightScale_;
    const double bytes =
        weight_traffic +
        seqs * width *
            (tot.actBytesPerSeq * r_.actFactor + tot.kvBytesPerSeq);
    StepCost c;
    c.compute = flops / r_.decodeRate;
    c.memory = bytes / r_.bw + bytes * r_.tax.extraSecPerByte;
    c.fixed = decodeFixed_;
    c.boundary = r_.tax.perTokenFixedSec;
    c.overlap = overlap_;
    return c;
}

StepCost
CpuStepKernel::prefill(unsigned prompts, unsigned done, unsigned chunk,
                       bool weights_streamed) const
{
    const double s = chunk;
    const double t0 = done;
    const double t1 = t0 + s;
    // Matmul FLOPs for the slice plus its share of the quadratic
    // attention term.
    const double flops =
        prompts * (2.0 * matmulParams_ * s +
                   2.0 * layers_ * hidden_ * (t1 * t1 - t0 * t0));
    const double kv_write = prompts * kvBytesPerToken_ * s;
    const double kv_read = prompts * kvBytesPerToken_ * t0;
    const double bytes =
        (weights_streamed ? 0.0 : weightBytes_) +
        prompts * totals_.actBytesPerSeq() * s * r_.actFactor * 0.25 +
        kv_write + kv_read;
    StepCost c;
    c.compute = flops / r_.prefillRate;
    c.memory = bytes / r_.bw + bytes * r_.tax.extraSecPerByte;
    c.fixed = totals_.opCount() * r_.tax.perOpFixedSec;
    c.boundary = prompts * r_.tax.perTokenFixedSec;
    c.overlap = overlap_;
    return c;
}

void
summarizeRun(TimingResult &result, unsigned batch, unsigned out_len)
{
    double decode_total = 0.0;
    for (double t : result.tokenLatencies)
        decode_total += t;
    const SampleSummary lat = summarize(result.tokenLatencies, 3.0);
    result.meanTokenLatency = lat.mean;
    result.decodeTput = batch / lat.mean;
    result.totalSeconds = result.prefillSeconds + decode_total;
    result.e2eTput = batch * out_len / result.totalSeconds;
}

TimingResult
CpuPerfModel::run(const hw::CpuSpec &cpu, const tee::TeeBackend &backend,
                  const ModelConfig &model, const RunParams &params) const
{
    if (params.sockets == 0 || params.sockets > cpu.sockets)
        cllm_fatal("run: invalid socket count ", params.sockets);
    if (params.batch == 0 || params.beam == 0 || params.outLen == 0)
        cllm_fatal("run: batch, beam, and outLen must be positive");

    const unsigned cores = params.cores
                               ? params.cores
                               : params.sockets * cpu.coresPerSocket;
    if (cores > cpu.totalCores())
        cllm_fatal("run: ", cores, " cores exceed machine capacity");

    const CpuStepKernel k = kernel(cpu, backend, model, params);
    const DeploymentRates &r = k.rates();
    const double nseq = params.sequences();

    TimingResult result;
    result.workingSetBytes = r.workingSetBytes;
    result.prefillSeconds =
        k.prefill(params.batch, 0, params.inLen, false).seconds();

    Rng rng(params.seed);
    StepCost last;
    for (unsigned step = 0; step < params.outLen; ++step) {
        last = k.decode(nseq, 1.0, params.inLen + step);
        double t = last.seconds();
        // Per-token jitter and encryption-stall outliers.
        t *= rng.lognormal(1.0, r.tax.noiseSigma);
        if (r.tax.outlierProb > 0.0 && rng.chance(r.tax.outlierProb))
            t *= r.tax.outlierScale;
        result.tokenLatencies.push_back(t);
    }
    result.memoryBound = last.memoryBound();
    summarizeRun(result, params.batch, params.outLen);

    // ---- Per-op attribution for one block (Figure 7) -----------------
    const double pos = params.inLen + params.outLen / 2.0;
    const double weight_scale =
        r.weightBytesPerParam / hw::dtypeBytes(params.dtype);
    for (const auto &op : blockDecodeOps(model, params.dtype, pos, nseq)) {
        const double flops = nseq * op.flopsPerSeq;
        const double bytes =
            op.weightBytes * weight_scale +
            nseq * (op.actBytesPerSeq * r.actFactor + op.kvBytesPerSeq);
        StepCost c;
        c.compute = flops / r.decodeRate;
        c.memory = bytes / r.bw + bytes * r.tax.extraSecPerByte;
        c.fixed = r.tax.perOpFixedSec;
        c.overlap = cfg_.overlapBeta;
        result.blockBreakdown.push_back(
            OpTiming{opName(op.kind), c.seconds(), flops, bytes});
    }
    return result;
}

} // namespace cllm::llm
