/**
 * @file
 * Fleet-wide outcome of a simulated run: per-node serving metrics and
 * billing rolled up into availability, latency percentiles, a
 * node-count timeline, and the $/1k-tokens figure the capacity bench
 * sweeps — the fleet-scale version of the paper's Figs. 12-13 cost
 * metric.
 */

#ifndef CLLM_FLEET_METRICS_HH
#define CLLM_FLEET_METRICS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/serving.hh"

namespace cllm::fleet {

/** One node's lifecycle and bill. */
struct NodeSummary
{
    unsigned id = 0;
    std::string name;
    std::size_t templateIndex = 0;
    double provisionStart = 0.0;
    double availableAt = 0.0;
    double billedUntil = 0.0;   //!< decommission or fleet makespan
    double billedSeconds = 0.0;
    double costUsd = 0.0;
    serve::ServeMetrics serve{};
};

/**
 * Aggregated fleet outcome. The serving counters roll up across nodes
 * by each counter's rule (`serve::kServeCounters`). The fleet ITL
 * summary pools every node's per-token gap samples in node-id order,
 * so it is a distribution over tokens, not a mean of per-node
 * summaries.
 */
struct FleetMetrics : serve::ServeCounters
{
    std::size_t submitted = 0;
    std::size_t completed = 0;
    double availability = 0.0;
    double makespan = 0.0;
    std::uint64_t outputTokens = 0;
    double tokensPerSecond = 0.0;
    SampleSummary ttft{};
    SampleSummary tpot{};
    SampleSummary itl{};
    double sloAttainment = 0.0;
    double kvUtilizationPeak = 0.0;   //!< max across nodes
    double meanBatchOccupancy = 0.0;  //!< fleet-wide per decode step
    double peakBatchOccupancy = 0.0;  //!< max across nodes

    // Fleet economics.
    double totalCostUsd = 0.0;
    double costPer1kTokens = 0.0;

    // Fleet dynamics.
    std::size_t peakNodes = 0;
    double meanLiveNodes = 0.0;       //!< time-weighted over the run
    std::size_t scaleUps = 0;
    std::size_t drains = 0;
    std::size_t backlogged = 0;       //!< arrivals that found no node

    /** (time, live node count) — one entry per change. */
    std::vector<std::pair<double, unsigned>> nodeTimeline;

    std::vector<NodeSummary> nodes;
};

/** Export a FleetMetrics (nodes and timeline included) as JSON. */
void writeFleetMetrics(JsonWriter &json, const FleetMetrics &m);

} // namespace cllm::fleet

#endif // CLLM_FLEET_METRICS_HH
