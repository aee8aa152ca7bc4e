/**
 * @file
 * Multi-GPU scale-out timing model for the paper's Section V-D4:
 * tensor-parallel inference across H100s. Non-confidential GPUs
 * communicate over NVLINK/RDMA; confidential H100s must route all
 * inter-GPU traffic through the host CPU because cGPU instances
 * support neither RDMA nor GPUdirect, capping throughput at ~3 GB/s
 * versus ~40 GB/s (the paper cites [89]), and NVLINK itself is
 * unprotected. Optionally layers an IPsec-style network-protection
 * tax (up to ~90% overhead, [25]) for cross-node deployments.
 */

#ifndef CLLM_LLM_PERF_CLUSTER_HH
#define CLLM_LLM_PERF_CLUSTER_HH

#include "hw/gpu.hh"
#include "llm/model_config.hh"
#include "llm/perf_cpu.hh"
#include "llm/perf_gpu.hh"

namespace cllm::llm {

/** Parameters of a tensor-parallel GPU cluster run. */
struct ClusterRunParams
{
    hw::Dtype dtype = hw::Dtype::Bf16;
    unsigned batch = 1;
    unsigned inLen = 128;
    unsigned outLen = 128;
    unsigned gpus = 2;          //!< tensor-parallel degree
    bool confidential = false;  //!< cGPU mode (host-routed comms)
    bool ipsec = false;         //!< network protection on the links
    std::uint64_t seed = 42;
};

/** Interconnect figures of the cluster. */
struct ClusterLinkConfig
{
    double rawBwBytes = 40e9;      //!< RDMA/GPUdirect path
    double hostRoutedBwBytes = 3e9;//!< confidential bounce path [89]
    double ipsecBwFactor = 0.53;   //!< ~90% overhead worst case [25]
    double rawLatencyUs = 20.0;    //!< per all-reduce
    double hostRoutedLatencyUs = 90.0;
};

/**
 * The ring all-reduce per-rank traffic factor, 2*(n-1)/n of the
 * payload. Every tensor-parallel all-reduce the cluster model prices
 * moves this share of its payload through each rank's link.
 */
double ringAllReduceFactor(unsigned ranks);

/**
 * Tensor-parallel timing: per decode step each layer all-reduces its
 * attention and MLP outputs across the group; weights and KV shard
 * across GPUs.
 */
class GpuClusterPerfModel
{
  public:
    explicit GpuClusterPerfModel(GpuPerfConfig gpu_cfg = {},
                                 ClusterLinkConfig link_cfg = {});

    /** Whether the sharded model + KV fits the cluster's memory. */
    bool fits(const hw::GpuSpec &gpu, const ModelConfig &model,
              const ClusterRunParams &params) const;

    /** Simulate a run; fatal if the model does not fit. */
    TimingResult run(const hw::GpuSpec &gpu, const ModelConfig &model,
                     const ClusterRunParams &params) const;

    /** Effective inter-GPU bandwidth for a configuration. */
    double linkBandwidth(const ClusterRunParams &params) const;

    const ClusterLinkConfig &linkConfig() const { return link_; }

  private:
    GpuPerfConfig cfg_;
    ClusterLinkConfig link_;
};

} // namespace cllm::llm

#endif // CLLM_LLM_PERF_CLUSTER_HH
