#include "fleet/metrics.hh"

#include "util/json.hh"

namespace cllm::fleet {

void
writeFleetMetrics(JsonWriter &json, const FleetMetrics &m)
{
    json.beginObject();
    json.field("submitted", m.submitted);
    json.field("completed", m.completed);
    json.field("availability", m.availability);
    json.field("makespan_s", m.makespan);
    json.field("output_tokens", m.outputTokens);
    json.field("tokens_per_s", m.tokensPerSecond);
    json.field("ttft_p50_s", m.ttft.p50);
    json.field("ttft_p99_s", m.ttft.p99);
    json.field("tpot_p50_s", m.tpot.p50);
    json.field("tpot_p99_s", m.tpot.p99);
    json.field("slo_attainment", m.sloAttainment);
    json.field("kv_utilization_peak", m.kvUtilizationPeak);
    json.field("mean_batch_occupancy", m.meanBatchOccupancy);
    json.field("peak_batch_occupancy", m.peakBatchOccupancy);
    serve::writeCounters(json, m, m.itl, serve::CounterGroup::Kv,
                         serve::CounterGroup::Spec);
    json.field("total_cost_usd", m.totalCostUsd);
    json.field("cost_per_1k_tokens_usd", m.costPer1kTokens);
    json.field("peak_nodes", m.peakNodes);
    json.field("mean_live_nodes", m.meanLiveNodes);
    json.field("scale_ups", m.scaleUps);
    json.field("drains", m.drains);
    json.field("backlogged", m.backlogged);
    serve::writeCounters(json, m, m.itl, serve::CounterGroup::Resilience,
                         serve::CounterGroup::Resilience);

    json.key("node_timeline");
    json.beginArray();
    for (const auto &[t, count] : m.nodeTimeline) {
        json.beginObject();
        json.field("t_s", t);
        json.field("live_nodes", count);
        json.endObject();
    }
    json.endArray();

    json.key("nodes");
    json.beginArray();
    for (const NodeSummary &n : m.nodes) {
        json.beginObject();
        json.field("id", n.id);
        json.field("name", n.name);
        json.field("template", n.templateIndex);
        json.field("provision_start_s", n.provisionStart);
        json.field("available_at_s", n.availableAt);
        json.field("billed_until_s", n.billedUntil);
        json.field("billed_seconds", n.billedSeconds);
        json.field("cost_usd", n.costUsd);
        json.key("serve");
        serve::writeMetrics(json, n.serve);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace cllm::fleet
