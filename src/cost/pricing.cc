#include "cost/pricing.hh"

#include "util/logging.hh"

namespace cllm::cost {

CpuPricing
gcpSpotUsEast1()
{
    return {"GCP spot us-east1 (EMR)", 0.0088, 0.00118};
}

CpuPricing
gcpSpotSprUsEast1()
{
    // "renting an almost 2x cheaper Sapphire Rapid" (Section V-D).
    return {"GCP spot us-east1 (SPR)", 0.0047, 0.00118};
}

GpuPricing
cgpuH100()
{
    return {"cGPU H100 (NCCads_H100_v5)", 10.50};
}

double
cpuInstanceHr(const CpuPricing &p, unsigned vcpus, double mem_gb)
{
    if (vcpus == 0 || mem_gb <= 0.0)
        cllm_fatal("cpuInstanceHr: empty instance");
    return p.vcpuHr * vcpus + p.memGbHr * mem_gb;
}

double
costPerMTokens(double tokens_per_s, double instance_hr)
{
    if (tokens_per_s <= 0.0)
        cllm_fatal("costPerMTokens: non-positive throughput");
    const double seconds = 1e6 / tokens_per_s;
    return instance_hr * seconds / 3600.0;
}

double
perSecondUsd(double instance_hr)
{
    if (instance_hr < 0.0)
        cllm_fatal("perSecondUsd: negative price");
    return instance_hr / 3600.0;
}

double
nodeSecondsUsd(double instance_hr, double seconds)
{
    if (seconds < 0.0)
        cllm_fatal("nodeSecondsUsd: negative duration");
    return perSecondUsd(instance_hr) * seconds;
}

double
costPer1kTokens(std::uint64_t tokens, double total_usd)
{
    if (tokens == 0)
        cllm_fatal("costPer1kTokens: no tokens generated");
    return total_usd * 1000.0 / static_cast<double>(tokens);
}

} // namespace cllm::cost
