/**
 * @file
 * Request routing across a heterogeneous TEE fleet. Policies range
 * from the degenerate Null router (everything to the lowest-id live
 * node — the single-node equivalence baseline) through classic
 * load-balancing (round-robin, least-outstanding, KV-headroom-aware)
 * to the cost-weighted policy that operationalises the paper's
 * Insight 11: keep traffic on cheap CPU-TEE nodes until their
 * projected TTFT would breach the SLO, then spill to CC-GPU capacity.
 */

#ifndef CLLM_FLEET_ROUTER_HH
#define CLLM_FLEET_ROUTER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fleet/node.hh"

namespace cllm::fleet {

/** Dispatch policies. */
enum class RouterPolicy
{
    Null,             //!< lowest-id routable node, always
    RoundRobin,       //!< cycle over routable nodes
    LeastOutstanding, //!< fewest active+queued requests
    KvHeadroom,       //!< most free KV blocks, then least loaded
    CostAware,        //!< cheapest price tier whose TTFT projection
                      //!< holds the SLO; spill upward otherwise
    PrefixAffinity,   //!< sticky by (tenant, prompt head) so repeat
                      //!< prefixes land where their KV is cached;
                      //!< spills to least-outstanding only when home
                      //!< breaches the TTFT projection AND is
                      //!< materially busier than the alternative
};

/**
 * Stateful dispatcher. All decisions are deterministic functions of
 * the policy, the node states, and (for round-robin) the dispatch
 * count so far.
 */
class Router
{
  public:
    Router(RouterPolicy policy, double ttft_slo);

    /**
     * Choose a node for `r` arriving at `now` among `live` (the
     * fleet's not-yet-decommissioned nodes, ascending id). Returns
     * null when no node is routable (the simulator backlogs).
     */
    Node *route(const std::vector<Node *> &live,
                const serve::Request &r, double now);

  private:
    RouterPolicy policy_;
    double ttftSlo_;
    std::size_t rrCursor_ = 0;
    /**
     * PrefixAffinity state: (tenant, prompt-head hash) → node id.
     * Cached-prefix locality is per node (each engine owns its own
     * radix tree), so repeat prefixes only hit if they keep landing
     * on the same node; a spill moves the affinity with it, since the
     * spill target is where the prefix will be cached next.
     */
    std::unordered_map<std::uint64_t, unsigned> affinity_;
    std::vector<Node *> routable_; //!< per-call scratch, ascending id
};

} // namespace cllm::fleet

#endif // CLLM_FLEET_ROUTER_HH
