/**
 * @file
 * Cloud pricing model for the paper's cost analysis (Section V-D,
 * Figures 12-13): GCP-style separable vCPU/memory spot pricing for
 * CPU machines, instance-hour pricing for confidential GPU VMs, and
 * the $/1M-tokens metric both figures report.
 */

#ifndef CLLM_COST_PRICING_HH
#define CLLM_COST_PRICING_HH

#include <string>

namespace cllm::cost {

/** Separable CPU pricing (per vCPU-hour and per GB-hour). */
struct CpuPricing
{
    std::string name;
    double vcpuHr = 0.0088;   //!< USD per vCPU per hour
    double memGbHr = 0.00118; //!< USD per GB per hour
};

/** GPU instance pricing (GPU + host bundled). */
struct GpuPricing
{
    std::string name;
    double instanceHr = 8.20; //!< USD per hour
};

/** GCP spot prices, us-east1 (C3/N2-class), as used in the paper. */
CpuPricing gcpSpotUsEast1();

/** Cheaper Sapphire-Rapids-based machine type (Section V-D). */
CpuPricing gcpSpotSprUsEast1();

/** Confidential H100 instance (Azure NCCads_H100_v5-class). */
GpuPricing cgpuH100();

/** Hourly price of a CPU slice: vCPUs + fixed memory. */
double cpuInstanceHr(const CpuPricing &p, unsigned vcpus,
                     double mem_gb);

/**
 * Cost in USD of generating one million tokens at a throughput.
 *
 * @param tokens_per_s sustained generation throughput
 * @param instance_hr instance price per hour
 */
double costPerMTokens(double tokens_per_s, double instance_hr);

/** Per-hour price converted to per-second (fleet node-second rate). */
double perSecondUsd(double instance_hr);

/**
 * USD charged for keeping one instance up for `seconds` at an hourly
 * price — the fleet simulator's node-second meter, applied to busy,
 * idle, and cold-start provisioning time alike.
 */
double nodeSecondsUsd(double instance_hr, double seconds);

/**
 * USD per 1000 generated tokens given a total bill — the fleet-level
 * figure of merit (Figs. 12-13 normalised to a fleet run).
 */
double costPer1kTokens(std::uint64_t tokens, double total_usd);

} // namespace cllm::cost

#endif // CLLM_COST_PRICING_HH
