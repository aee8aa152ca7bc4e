#include "fleet/simulator.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "cost/pricing.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace cllm::fleet {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/** The fleet's own trace lane (nodes use id + 1). */
constexpr std::uint32_t kFleetLane = 0;

/** The config's tracer when sim recording is live, else null. */
obs::Tracer *
simTracer(const FleetConfig &cfg)
{
    return cfg.tracer && cfg.tracer->simEnabled() ? cfg.tracer
                                                  : nullptr;
}
} // namespace

FleetSimulator::FleetSimulator(FleetConfig cfg,
                               std::vector<NodeTemplate> templates)
    : cfg_(std::move(cfg)), templates_(std::move(templates))
{
    if (templates_.empty())
        cllm_fatal("FleetSimulator: no node templates");
    if (cfg_.initialNodes.empty())
        cllm_fatal("FleetSimulator: empty initial fleet");
    for (std::size_t idx : cfg_.initialNodes)
        if (idx >= templates_.size())
            cllm_fatal("FleetSimulator: initial node template out of "
                       "range");
    if (cfg_.autoscaler.enabled &&
        cfg_.autoscaler.addTemplate >= templates_.size())
        cllm_fatal("FleetSimulator: autoscaler template out of range");
}

void
FleetSimulator::addNode(std::size_t template_index,
                        double provision_start, double available_at)
{
    const auto id = static_cast<unsigned>(nodes_.size());
    nodes_.push_back(std::make_unique<Node>(
        id, template_index, templates_[template_index], cfg_.seed,
        provision_start, available_at, cfg_.tracer));
    live_.push_back(nodes_.back().get());
    if (obs::Tracer *t = simTracer(cfg_)) {
        const Node &n = *nodes_.back();
        t->laneName(n.traceLane(),
                    n.name() + " #" + std::to_string(id));
        t->complete(kFleetLane, "provision", provision_start,
                    available_at,
                    {{"node", static_cast<double>(id)}});
    }
}

FleetMetrics
FleetSimulator::run(std::vector<serve::Request> trace)
{
    if (trace.empty())
        cllm_fatal("FleetSimulator::run: empty trace");
    // The engines hold pointers into the trace: drop the previous
    // run's nodes before replacing the requests they point at.
    nodes_.clear();
    live_.clear();
    trace_ = std::move(trace);
    std::sort(trace_.begin(), trace_.end(),
              [](const serve::Request &a, const serve::Request &b) {
                  return a.arrival < b.arrival;
              });

    scaleUps_ = 0;
    drains_ = 0;
    obs::Tracer *tr = simTracer(cfg_);
    if (tr)
        tr->laneName(kFleetLane, "fleet");
    for (std::size_t idx : cfg_.initialNodes)
        addNode(idx, 0.0, 0.0);

    Router router(cfg_.policy, cfg_.ttftSlo);
    Autoscaler scaler(cfg_.autoscaler);

    std::deque<serve::Request *> backlog;
    std::size_t backlogged_total = 0;
    std::size_t next_arrival = 0;
    double fleet_now = 0.0;
    double next_tick =
        cfg_.autoscaler.enabled ? cfg_.autoscaler.intervalSec : kInf;

    // Route a request at `now`; readyAt can never precede the node's
    // own provisioning.
    auto route_one = [&](serve::Request *r, double now) {
        Node *pick = router.route(live_, *r, now);
        if (!pick)
            return false;
        Node &n = *pick;
        n.engine().submit(r, std::max(r->arrival, n.availableAt()));
        if (tr)
            tr->instant(kFleetLane, "route", now,
                        {{"req", static_cast<double>(r->id)},
                         {"node",
                          static_cast<double>(n.id())}});
        return true;
    };
    auto flush_backlog = [&](double now) {
        const std::size_t before = backlog.size();
        while (!backlog.empty() && route_one(backlog.front(), now))
            backlog.pop_front();
        if (tr && backlog.size() != before)
            tr->counterValue(
                kFleetLane, "backlog", now,
                static_cast<double>(backlog.size()));
    };

    for (;;) {
        // Draining nodes decommission the moment they go idle and
        // leave the live index; their meter stops at whichever is
        // later, the drain order or the last work they finished.
        std::erase_if(live_, [](Node *n) {
            if (!n->draining() || !n->engine().idle())
                return false;
            n->finishDrain();
            return true;
        });

        const double t_arrival = next_arrival < trace_.size()
                                     ? trace_[next_arrival].arrival
                                     : kInf;

        // Earliest ready node; ties go to the lowest id.
        Node *next_node = nullptr;
        double t_node = kInf;
        for (Node *n : live_) {
            const double t = n->engine().nextReadyTime();
            if (t < t_node) {
                t_node = t;
                next_node = n;
            }
        }

        // A pending commission only matters while arrivals are
        // backlogged: it is the instant the backlog can drain.
        double t_commission = kInf;
        if (!backlog.empty())
            for (const Node *n : live_)
                if (!n->draining() && n->availableAt() > fleet_now)
                    t_commission =
                        std::min(t_commission, n->availableAt());

        if (t_arrival == kInf && backlog.empty() && t_node == kInf)
            break; // trace drained, every engine idle

        // Fixed tie order keeps runs deterministic: commission,
        // arrival, autoscaler tick, node iteration.
        const double t_next = std::min(
            std::min(t_commission, t_arrival),
            std::min(next_tick, t_node));

        if (t_commission == t_next) {
            fleet_now = t_commission;
            flush_backlog(fleet_now);
            continue;
        }
        if (t_arrival == t_next) {
            fleet_now = t_arrival;
            flush_backlog(fleet_now);
            serve::Request *r = &trace_[next_arrival++];
            // FIFO: never jump the queue past an existing backlog.
            if (!backlog.empty() || !route_one(r, fleet_now)) {
                backlog.push_back(r);
                ++backlogged_total;
                if (tr) {
                    tr->instant(
                        kFleetLane, "backlogged", fleet_now,
                        {{"req", static_cast<double>(r->id)}});
                    tr->counterValue(
                        kFleetLane, "backlog", fleet_now,
                        static_cast<double>(backlog.size()));
                }
            }
            continue;
        }
        if (next_tick == t_next) {
            fleet_now = next_tick;
            flush_backlog(fleet_now);
            const ScaleDecision d =
                scaler.tick(live_, backlog.size(), fleet_now);
            if (d.kind == ScaleDecision::Kind::Add) {
                const NodeTemplate &tmpl =
                    templates_[cfg_.autoscaler.addTemplate];
                const double cold =
                    tmpl.provisionDelaySec +
                    tmpl.server.reprovision.seconds(
                        tmpl.server.weightBytes);
                if (tr)
                    tr->instant(
                        kFleetLane, "scale_up", fleet_now,
                        {{"node", static_cast<double>(
                                      nodes_.size())},
                         {"cold_start_s", cold},
                         {"backlog", static_cast<double>(
                                         backlog.size())}});
                addNode(cfg_.autoscaler.addTemplate, fleet_now,
                        fleet_now + cold);
                ++scaleUps_;
            } else if (d.kind == ScaleDecision::Kind::Drain) {
                if (tr)
                    tr->instant(
                        kFleetLane, "drain", fleet_now,
                        {{"node",
                          static_cast<double>(d.node->id())}});
                d.node->startDrain(fleet_now);
                ++drains_;
            }
            next_tick += cfg_.autoscaler.intervalSec;
            continue;
        }

        fleet_now = std::max(fleet_now, t_node);
        // The engine pauses its admission loop if its clock crosses
        // the next event that could feed it work, so admissions stay
        // in the exact (readyAt, id) order of a pre-submitted run.
        next_node->engine().iterate(
            std::min(t_arrival, t_commission));
    }

    return finalize(backlogged_total);
}

FleetMetrics
FleetSimulator::finalize(std::size_t backlogged_total)
{
    double makespan = trace_.back().arrival;
    serve::ServeCounters counters{};
    // Every node's per-token gaps, summarized as one multiset in
    // node-id order, so the fleet ITL summary is deterministic at any
    // thread count.
    std::vector<const RunLengthSamples *> itl;
    itl.reserve(nodes_.size());
    double occupancy_sum = 0.0;
    std::size_t steps = 0;
    double kv_peak = 0.0;
    std::size_t peak_batch = 0;
    for (const auto &n : nodes_) {
        const serve::ContinuousEngine &e = n->engine();
        makespan = std::max(makespan, e.clock());
        const serve::ServeTally &t = e.tally();
        serve::mergeCounters(counters, t);
        itl.push_back(&t.itlSamples);
        occupancy_sum += e.occupancySum();
        steps += e.steps();
        kv_peak = std::max(kv_peak, e.kvPeak());
        peak_batch = std::max(peak_batch, e.peakBatch());
    }

    std::vector<const serve::Request *> reqs;
    reqs.reserve(trace_.size());
    for (const serve::Request &r : trace_)
        reqs.push_back(&r);
    const serve::ServeMetrics agg = serve::finalizeRequests(
        reqs, makespan, occupancy_sum, steps, counters, itl,
        cfg_.ttftSlo, cfg_.tpotSlo);

    FleetMetrics m;
    static_cast<serve::ServeCounters &>(m) = agg;
    m.submitted = agg.submitted;
    m.completed = agg.completed;
    m.availability = agg.availability;
    m.makespan = makespan;
    m.outputTokens = agg.outputTokens;
    m.tokensPerSecond = agg.tokensPerSecond;
    m.ttft = agg.ttft;
    m.tpot = agg.tpot;
    m.itl = agg.itl;
    m.sloAttainment = agg.sloAttainment;
    m.kvUtilizationPeak = kv_peak;
    m.meanBatchOccupancy = agg.meanBatchOccupancy;
    m.peakBatchOccupancy = static_cast<double>(peak_batch);
    m.scaleUps = scaleUps_;
    m.drains = drains_;
    m.backlogged = backlogged_total;

    // Billing and per-node summaries.
    for (const auto &n : nodes_) {
        NodeSummary s;
        s.id = n->id();
        s.name = n->name();
        s.templateIndex = n->templateIndex();
        s.provisionStart = n->provisionStart();
        s.availableAt = n->availableAt();
        s.billedUntil = n->decommissioned() ? n->decommissionTime()
                                            : makespan;
        s.billedSeconds = n->billedSeconds(makespan);
        s.costUsd = cost::nodeSecondsUsd(n->pricePerHour(),
                                         s.billedSeconds);
        s.serve = n->metrics();
        m.totalCostUsd += s.costUsd;
        m.nodes.push_back(std::move(s));
    }
    m.costPer1kTokens =
        m.outputTokens
            ? cost::costPer1kTokens(m.outputTokens, m.totalCostUsd)
            : 0.0;

    // Live-node timeline: +1 at each commission, -1 at each
    // decommission, integrated for the time-weighted mean.
    std::vector<std::pair<double, int>> deltas;
    for (const auto &n : nodes_) {
        if (n->availableAt() <= makespan)
            deltas.emplace_back(n->availableAt(), +1);
        if (n->decommissioned())
            deltas.emplace_back(n->decommissionTime(), -1);
    }
    std::sort(deltas.begin(), deltas.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second > b.second;
              });
    unsigned live = 0;
    double prev_t = 0.0;
    double weighted = 0.0;
    for (const auto &[t, d] : deltas) {
        weighted += live * (t - prev_t);
        prev_t = t;
        live = static_cast<unsigned>(static_cast<int>(live) + d);
        if (m.nodeTimeline.empty() ||
            m.nodeTimeline.back().first != t)
            m.nodeTimeline.emplace_back(t, live);
        else
            m.nodeTimeline.back().second = live;
        m.peakNodes = std::max<std::size_t>(m.peakNodes, live);
    }
    weighted += live * (makespan - prev_t);
    m.meanLiveNodes = makespan > 0.0 ? weighted / makespan : 0.0;

    if (obs::Tracer *tr = simTracer(cfg_))
        for (const auto &[t, count] : m.nodeTimeline)
            tr->counterValue(kFleetLane, "live_nodes", t,
                             static_cast<double>(count));

    // Global $/node-second accounting in integer micro-units (the
    // registry's determinism contract allows only integer adds).
    static obs::Counter &billed_ms =
        obs::Registry::global().counter("fleet.billed_node_ms");
    static obs::Counter &cost_micro_usd =
        obs::Registry::global().counter("fleet.cost_micro_usd");
    double billed_total = 0.0;
    for (const NodeSummary &s : m.nodes)
        billed_total += s.billedSeconds;
    billed_ms.add(static_cast<std::uint64_t>(
        std::llround(billed_total * 1e3)));
    cost_micro_usd.add(static_cast<std::uint64_t>(
        std::llround(m.totalCostUsd * 1e6)));
    return m;
}

} // namespace cllm::fleet
