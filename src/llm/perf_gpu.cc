#include "llm/perf_gpu.hh"

#include "util/logging.hh"
#include "util/rng.hh"

namespace cllm::llm {

GpuStepKernel::GpuStepKernel(const hw::GpuSpec &gpu, bool confidential,
                             const ModelConfig &model, hw::Dtype dtype,
                             unsigned shards, const GpuPerfConfig &cfg)
    : tax_(confidential ? tee::cgpuTax(gpu) : tee::GpuTax{}),
      shards_(shards), rate_(gpu.peakOps(dtype) * cfg.computeEff),
      bw_(gpu.hbmBwBytes * cfg.memEff * tax_.hbmBwFactor),
      launches_(cfg.launchesPerStep *
                (gpu.kernelLaunchUs * 1e-6 + tax_.launchExtraSec)),
      hostBw_(tax_.hostLinkBwBytes > 0.0 ? tax_.hostLinkBwBytes
                                         : gpu.pcieBwBytes),
      hostBytesPerToken_(cfg.hostBytesPerToken),
      weightBytes_(model.weightBytes(dtype)),
      kvBytesPerToken_(model.kvBytesPerToken(dtype)),
      matmulParams_(static_cast<double>(model.matmulParams())),
      layers_(model.layers), hidden_(model.hidden)
{
}

StepCost
GpuStepKernel::decode(double seqs, double width, double depth) const
{
    const double flops = seqs * width *
                         (2.0 * matmulParams_ +
                          4.0 * layers_ * hidden_ * depth);
    const double bytes =
        weightBytes_ + seqs * kvBytesPerToken_ * width * (depth + 1.0);
    StepCost c;
    c.compute = flops / shards_ / rate_;
    c.memory = bytes / shards_ / bw_;
    c.fixed = launches_;
    c.boundary = seqs * width * hostBytesPerToken_ / hostBw_;
    return c;
}

StepCost
GpuStepKernel::prefill(unsigned prompts, unsigned done, unsigned chunk,
                       bool weights_streamed) const
{
    const double s = chunk;
    const double t0 = done;
    const double t1 = t0 + s;
    const double flops =
        prompts * (2.0 * matmulParams_ * s +
                   2.0 * layers_ * hidden_ * (t1 * t1 - t0 * t0));
    const double bytes = (weights_streamed ? 0.0 : weightBytes_) +
                         prompts * kvBytesPerToken_ * (s + t0);
    StepCost c;
    c.compute = flops / shards_ / rate_;
    c.memory = bytes / shards_ / bw_;
    c.fixed = launches_;
    // Prompt upload crosses the (possibly encrypted) host link.
    c.boundary = prompts * s * 4.0 / hostBw_;
    return c;
}

TimingResult
runGpuKernel(const GpuStepKernel &kernel, unsigned batch,
             unsigned in_len, unsigned out_len, std::uint64_t seed,
             const std::function<double(double)> &comm)
{
    TimingResult result;
    result.prefillSeconds =
        kernel.prefill(batch, 0, in_len, false).seconds() +
        comm(static_cast<double>(batch) * in_len);

    Rng rng(seed);
    StepCost last;
    for (unsigned step = 0; step < out_len; ++step) {
        last = kernel.decode(batch, 1.0, in_len + step);
        const double t = (last.seconds() + comm(batch)) *
                         rng.lognormal(1.0, kernel.tax().noiseSigma);
        result.tokenLatencies.push_back(t);
    }
    result.memoryBound = last.memoryBound();
    summarizeRun(result, batch, out_len);
    return result;
}

GpuPerfModel::GpuPerfModel(GpuPerfConfig cfg) : cfg_(cfg) {}

TimingResult
GpuPerfModel::run(const hw::GpuSpec &gpu, const ModelConfig &model,
                  const GpuRunParams &params) const
{
    if (params.batch == 0 || params.outLen == 0)
        cllm_fatal("GPU run: batch and outLen must be positive");

    const double weight_bytes = model.weightBytes(params.dtype);
    const double final_ctx = params.inLen + params.outLen;
    const double kv_total = params.batch *
                            model.kvBytesPerToken(params.dtype) *
                            final_ctx;
    if (weight_bytes + kv_total > gpu.hbmBytes) {
        cllm_fatal("model + KV cache (",
                   (weight_bytes + kv_total) / 1e9,
                   " GB) exceed GPU memory of ", gpu.hbmBytes / 1e9,
                   " GB");
    }

    const GpuStepKernel kernel(gpu, params.confidential, model,
                               params.dtype, 1, cfg_);
    TimingResult result =
        runGpuKernel(kernel, params.batch, params.inLen, params.outLen,
                     params.seed, [](double) { return 0.0; });
    result.workingSetBytes = weight_bytes + kv_total;
    return result;
}

} // namespace cllm::llm
