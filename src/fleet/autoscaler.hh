/**
 * @file
 * Queue-depth/SLO-driven autoscaling for the fleet simulator. The
 * scaler is evaluated at a fixed cadence on the fleet clock and emits
 * at most one action per tick: add a node from a designated template
 * (paying its cold-start — cloud allocation plus TEE re-provisioning
 * — before it becomes routable) or drain one (stop routing to it, let
 * it finish, stop its meter). Sustained-low hysteresis and an action
 * cooldown keep it from flapping during bursty on-off workloads.
 */

#ifndef CLLM_FLEET_AUTOSCALER_HH
#define CLLM_FLEET_AUTOSCALER_HH

#include <cstddef>
#include <vector>

#include "fleet/node.hh"

namespace cllm::fleet {

/** Autoscaler tuning; disabled by default. */
struct AutoscalerConfig
{
    bool enabled = false;
    double intervalSec = 10.0; //!< evaluation cadence (fleet clock)

    /** Scale up when mean outstanding per live node reaches this. */
    double queueHighPerNode = 6.0;
    /**
     * Scale up when any live node's KV pool occupancy reaches this
     * fraction (0 = signal off). Meaningful for paged-KV nodes, where
     * pool pressure shows up as preemptions well before queue depth
     * moves.
     */
    double kvHighUtil = 0.0;
    /** Candidate for draining when mean outstanding falls below. */
    double queueLowPerNode = 0.5;
    /** Consecutive low ticks required before a drain. */
    unsigned drainAfterTicks = 3;

    unsigned minNodes = 1;
    unsigned maxNodes = 12;
    /** Template index instantiated on scale-up. */
    std::size_t addTemplate = 0;
    /** Minimum seconds between scale actions. */
    double cooldownSec = 30.0;
};

/** One tick's outcome. */
struct ScaleDecision
{
    enum class Kind { None, Add, Drain };
    Kind kind = Kind::None;
    Node *node = nullptr; //!< node to drain (Kind::Drain only)
};

/** Deterministic scaling policy over fleet state. */
class Autoscaler
{
  public:
    explicit Autoscaler(AutoscalerConfig cfg);

    const AutoscalerConfig &config() const { return cfg_; }

    /**
     * Evaluate at fleet time `now`. `nodes` are the fleet's
     * not-yet-decommissioned nodes in ascending id order. `backlog`
     * is the router's unplaced arrival count (only non-zero while
     * nothing is routable).
     */
    ScaleDecision tick(const std::vector<Node *> &nodes,
                       std::size_t backlog, double now);

  private:
    AutoscalerConfig cfg_;
    unsigned lowTicks_ = 0;
    double lastActionAt_ = -1e300;
};

} // namespace cllm::fleet

#endif // CLLM_FLEET_AUTOSCALER_HH
