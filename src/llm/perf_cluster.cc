#include "llm/perf_cluster.hh"

#include "util/logging.hh"

namespace cllm::llm {

GpuClusterPerfModel::GpuClusterPerfModel(GpuPerfConfig gpu_cfg,
                                         ClusterLinkConfig link_cfg)
    : cfg_(gpu_cfg), link_(link_cfg)
{
}

double
GpuClusterPerfModel::linkBandwidth(const ClusterRunParams &params) const
{
    double bw = params.confidential ? link_.hostRoutedBwBytes
                                    : link_.rawBwBytes;
    if (params.ipsec)
        bw *= link_.ipsecBwFactor;
    return bw;
}

bool
GpuClusterPerfModel::fits(const hw::GpuSpec &gpu, const ModelConfig &model,
                          const ClusterRunParams &params) const
{
    const double tp = params.gpus;
    const double weight_bytes = model.weightBytes(params.dtype) / tp;
    const double kv_total = params.batch *
                            model.kvBytesPerToken(params.dtype) *
                            (params.inLen + params.outLen) / tp;
    return weight_bytes + kv_total <= gpu.hbmBytes;
}

TimingResult
GpuClusterPerfModel::run(const hw::GpuSpec &gpu, const ModelConfig &model,
                         const ClusterRunParams &params) const
{
    if (params.gpus == 0 || params.batch == 0 || params.outLen == 0)
        cllm_fatal("cluster run: degenerate parameters");
    if (!fits(gpu, model, params)) {
        cllm_fatal("model does not fit ", params.gpus, "x ", gpu.name,
                   " (", model.name, ")");
    }

    const double tp = params.gpus;
    const double link_bw = linkBandwidth(params);
    double link_lat = (params.confidential ? link_.hostRoutedLatencyUs
                                           : link_.rawLatencyUs) *
                      1e-6;
    if (params.ipsec)
        link_lat *= 1.8;

    // Ring all-reduce moves 2*(tp-1)/tp of the payload per member;
    // two collectives per layer (attention output, MLP output).
    const double act_bytes =
        params.dtype == hw::Dtype::Fp32 ? 4.0 : 2.0;
    const double ring = 2.0 * (tp - 1.0) / tp;
    auto comm_seconds = [&](double tokens) {
        if (params.gpus == 1)
            return 0.0;
        const double payload =
            tokens * model.hidden * act_bytes * ring;
        const double per_layer = payload / link_bw + link_lat;
        return 2.0 * model.layers * per_layer;
    };

    const GpuStepKernel kernel(gpu, params.confidential, model,
                               params.dtype, params.gpus, cfg_);
    TimingResult result =
        runGpuKernel(kernel, params.batch, params.inLen, params.outLen,
                     params.seed, comm_seconds);
    result.workingSetBytes =
        model.weightBytes(params.dtype) / tp +
        params.batch * model.kvBytesPerToken(params.dtype) *
            (params.inLen + params.outLen) / tp;
    return result;
}

} // namespace cllm::llm
