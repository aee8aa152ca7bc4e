#include "fleet/router.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cllm::fleet {

Router::Router(RouterPolicy policy, double ttft_slo)
    : policy_(policy), ttftSlo_(ttft_slo)
{
    if (ttft_slo <= 0.0)
        cllm_fatal("Router: non-positive TTFT SLO");
}

namespace {

/**
 * How much busier (outstanding requests) a prefix-affinity home node
 * may run than the least-loaded alternative before a projected-TTFT
 * breach actually spills the request. Below this the fleet is near
 * balance: moving would forfeit the cached prefix for no queueing
 * gain.
 */
constexpr unsigned kAffinitySlack = 2;

/** Least outstanding work among `nodes`, ties to the lowest id. */
Node *
leastOutstanding(const std::vector<Node *> &nodes)
{
    Node *best = nullptr;
    for (Node *n : nodes)
        if (!best ||
            n->engine().outstanding() < best->engine().outstanding())
            best = n;
    return best;
}

/**
 * Affinity key: FNV-1a over the tenant and the leading prompt tokens.
 * 64 tokens (4+ KV blocks at the default geometry) is enough to
 * separate distinct system prompts without hashing whole contexts.
 */
std::uint64_t
prefixKey(const serve::Request &r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    mix(r.tenant);
    const std::size_t n =
        std::min<std::size_t>(r.promptTokens.size(), 64);
    for (std::size_t i = 0; i < n; ++i)
        mix(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(r.promptTokens[i])));
    return h;
}

} // namespace

Node *
Router::route(const std::vector<Node *> &live, const serve::Request &r,
              double now)
{
    std::vector<Node *> &routable = routable_;
    routable.clear();
    for (Node *n : live)
        if (n->routable(now))
            routable.push_back(n);
    if (routable.empty())
        return nullptr;

    switch (policy_) {
      case RouterPolicy::Null:
        return routable.front();

      case RouterPolicy::RoundRobin: {
        Node *pick = routable[rrCursor_ % routable.size()];
        ++rrCursor_;
        return pick;
      }

      case RouterPolicy::LeastOutstanding:
        return leastOutstanding(routable);

      case RouterPolicy::KvHeadroom: {
        // Most free KV fraction first; fraction ties break on
        // absolute free blocks (heterogeneous pool sizes hide behind
        // equal fractions), then load, then id.
        Node *best = routable.front();
        for (Node *n : routable) {
            const serve::ContinuousEngine &e = n->engine();
            const serve::ContinuousEngine &b = best->engine();
            const double hi = e.kvHeadroom();
            const double hb = b.kvHeadroom();
            if (hi != hb) {
                if (hi > hb)
                    best = n;
                continue;
            }
            const std::uint64_t fi = e.kvFreeBlocks();
            const std::uint64_t fb = b.kvFreeBlocks();
            if (fi > fb ||
                (fi == fb && e.outstanding() < b.outstanding()))
                best = n;
        }
        return best;
      }

      case RouterPolicy::CostAware: {
        // Walk price tiers from cheapest up; within a tier take the
        // least-loaded node, and accept the tier only if that node's
        // TTFT projection holds the SLO. If every tier would breach
        // it, the fleet is saturated — fall back to least loaded
        // overall so overload degrades gracefully instead of pinning
        // the cheapest tier.
        std::vector<double> prices;
        for (const Node *n : routable)
            prices.push_back(n->pricePerHour());
        std::sort(prices.begin(), prices.end());
        prices.erase(std::unique(prices.begin(), prices.end()),
                     prices.end());
        for (double price : prices) {
            std::vector<Node *> tier;
            for (Node *n : routable)
                if (n->pricePerHour() == price)
                    tier.push_back(n);
            Node *cand = leastOutstanding(tier);
            if (cand->projectedTtft(now, r.inLen) <= ttftSlo_)
                return cand;
        }
        return leastOutstanding(routable);
      }

      case RouterPolicy::PrefixAffinity: {
        // No tokens to key on: plain load balancing.
        if (r.promptTokens.empty())
            return leastOutstanding(routable);
        const std::uint64_t key = prefixKey(r);
        Node *alt = leastOutstanding(routable);
        auto it = affinity_.find(key);
        if (it != affinity_.end()) {
            const unsigned home_id = it->second;
            const auto home_it = std::find_if(
                routable.begin(), routable.end(),
                [home_id](const Node *n) { return n->id() == home_id; });
            // Stay home unless home is both breaching the TTFT
            // projection and materially busier than the best
            // alternative. A hit skips the cached prefill (which the
            // projection cannot see), and when every node is equally
            // loaded moving gains nothing and forfeits the cached
            // prefix — so spill needs both signals.
            if (home_it != routable.end()) {
                Node *home = *home_it;
                const bool slo_ok =
                    home->projectedTtft(now, r.inLen) <= ttftSlo_;
                const bool balanced =
                    home->engine().outstanding() <=
                    alt->engine().outstanding() + kAffinitySlack;
                if (slo_ok || balanced)
                    return home;
            }
        }
        // Miss or spill: balance by load, and move the affinity —
        // the prefix gets cached wherever this request lands.
        affinity_[key] = alt->id();
        return alt;
      }
    }
    return routable.front();
}

} // namespace cllm::fleet
