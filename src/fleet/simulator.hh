/**
 * @file
 * Discrete-event fleet simulator: many `serve::ContinuousEngine`
 * node simulations interleaved under one global event loop, with a
 * router dispatching the shared arrival stream, an optional
 * autoscaler reshaping the fleet, and node-second billing.
 *
 * Event model. Four event sources compete for the next global step:
 * the next unrouted arrival, the next live node able to make progress
 * (each engine reports `nextReadyTime()`), the next autoscaler tick,
 * and — only while arrivals are backlogged — the next node
 * commission. Events are processed in time order with a fixed
 * priority on ties (commission, arrival, tick, node iteration), so a
 * run is a pure function of (trace, fleet seed, config): the same
 * inputs give bit-identical FleetMetrics, and a 1-node fleet under
 * the Null router replays exactly the iteration sequence of a bare
 * `serve::Server::run`.
 */

#ifndef CLLM_FLEET_SIMULATOR_HH
#define CLLM_FLEET_SIMULATOR_HH

#include <memory>
#include <vector>

#include "fleet/autoscaler.hh"
#include "fleet/metrics.hh"
#include "fleet/node.hh"
#include "fleet/router.hh"

namespace cllm::obs {
class Tracer;
}

namespace cllm::fleet {

/** Fleet-level configuration. */
struct FleetConfig
{
    /** Root seed; node fault seeds derive from it by split-seed. */
    std::uint64_t seed = 1;

    RouterPolicy policy = RouterPolicy::LeastOutstanding;

    /** Fleet-level SLOs (routing spill + aggregate attainment). */
    double ttftSlo = 2.0;
    double tpotSlo = 0.200;

    /** Template index of each initially provisioned node. */
    std::vector<std::size_t> initialNodes;

    AutoscalerConfig autoscaler{};

    /**
     * Optional span tracer (null = off). Fleet-level events (routing,
     * scaling, backlog) land on lane 0; node `i` serves on lane
     * `i + 1`. Observational only — attaching a tracer cannot change
     * FleetMetrics.
     */
    obs::Tracer *tracer = nullptr;
};

/** The fleet-of-servers simulator. */
class FleetSimulator
{
  public:
    FleetSimulator(FleetConfig cfg,
                   std::vector<NodeTemplate> templates);

    /**
     * Simulate a shared arrival trace through the fleet. The simulator
     * keeps its arrival-sorted copy of the trace until the next run,
     * so the nodes' engines (which point into it) stay inspectable.
     */
    FleetMetrics run(std::vector<serve::Request> trace);

    /**
     * Every node the last run provisioned, retired ones included
     * (lifecycle state, per-node engines); valid until the next run.
     */
    const std::vector<std::unique_ptr<Node>> &nodes() const
    {
        return nodes_;
    }

  private:
    void addNode(std::size_t template_index, double provision_start,
                 double available_at);
    FleetMetrics finalize(std::size_t backlogged_total);

    FleetConfig cfg_;
    std::vector<NodeTemplate> templates_;
    std::vector<std::unique_ptr<Node>> nodes_;
    /**
     * The nodes not yet decommissioned, in ascending id order. The
     * event loop, router and autoscaler walk only these, so an event
     * costs O(live nodes) however many nodes the run has retired.
     */
    std::vector<Node *> live_;
    std::vector<serve::Request> trace_; //!< the last run's requests
    std::size_t scaleUps_ = 0;
    std::size_t drains_ = 0;
};

} // namespace cllm::fleet

#endif // CLLM_FLEET_SIMULATOR_HH
