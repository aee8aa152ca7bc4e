#include "fleet/autoscaler.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cllm::fleet {

Autoscaler::Autoscaler(AutoscalerConfig cfg) : cfg_(cfg)
{
    if (!cfg_.enabled)
        return;
    if (cfg_.intervalSec <= 0.0)
        cllm_fatal("Autoscaler: non-positive interval");
    if (cfg_.minNodes == 0 || cfg_.maxNodes < cfg_.minNodes)
        cllm_fatal("Autoscaler: bad node bounds");
    if (cfg_.queueLowPerNode >= cfg_.queueHighPerNode)
        cllm_fatal("Autoscaler: low watermark above high");
    if (cfg_.kvHighUtil < 0.0 || cfg_.kvHighUtil > 1.0)
        cllm_fatal("Autoscaler: KV watermark outside [0, 1]");
}

ScaleDecision
Autoscaler::tick(const std::vector<Node *> &nodes, std::size_t backlog,
                 double now)
{
    // Live = commissioned or still provisioning, not draining. A
    // provisioning node counts toward capacity so one burst does not
    // trigger an add per tick while the first replacement cold-starts.
    std::size_t live = 0;
    std::size_t outstanding = backlog;
    double kv_util_max = 0.0;
    for (const Node *n : nodes) {
        if (n->draining())
            continue;
        ++live;
        outstanding += n->engine().outstanding();
        kv_util_max =
            std::max(kv_util_max, n->engine().kvUtilization());
    }
    if (live == 0)
        return {};
    const double per_node = static_cast<double>(outstanding) /
                            static_cast<double>(live);
    const bool cooled = now - lastActionAt_ >= cfg_.cooldownSec;
    const bool kv_pressure =
        cfg_.kvHighUtil > 0.0 && kv_util_max >= cfg_.kvHighUtil;

    if (per_node >= cfg_.queueHighPerNode || kv_pressure) {
        lowTicks_ = 0;
        if (live < cfg_.maxNodes && cooled) {
            lastActionAt_ = now;
            return {ScaleDecision::Kind::Add, nullptr};
        }
        return {};
    }

    if (per_node <= cfg_.queueLowPerNode) {
        ++lowTicks_;
        if (lowTicks_ >= cfg_.drainAfterTicks && live > cfg_.minNodes &&
            cooled) {
            // Drain the priciest of the least-loaded routable nodes:
            // frees the most spend for the least disruption.
            Node *pick = nullptr;
            for (Node *n : nodes) {
                if (!n->routable(now))
                    continue;
                if (!pick) {
                    pick = n;
                    continue;
                }
                const std::size_t oi = n->engine().outstanding();
                const std::size_t ob = pick->engine().outstanding();
                if (oi < ob || (oi == ob && n->pricePerHour() >
                                                pick->pricePerHour()))
                    pick = n;
            }
            if (pick) {
                lowTicks_ = 0;
                lastActionAt_ = now;
                return {ScaleDecision::Kind::Drain, pick};
            }
        }
        return {};
    }

    lowTicks_ = 0;
    return {};
}

} // namespace cllm::fleet
