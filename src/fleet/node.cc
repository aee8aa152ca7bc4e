#include "fleet/node.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/rng.hh"

namespace cllm::fleet {

fault::FaultSchedule
nodeFaultSchedule(const fault::FaultScheduleConfig &cfg,
                  std::uint64_t fleet_seed, unsigned node_id,
                  double t0)
{
    fault::FaultScheduleConfig node_cfg = cfg;
    node_cfg.seed = splitSeed(fleet_seed, node_id);
    const fault::FaultSchedule raw =
        fault::FaultSchedule::generate(node_cfg);
    if (t0 == 0.0)
        return raw;
    fault::FaultSchedule shifted;
    for (fault::FaultEvent e : raw.events()) {
        e.time += t0;
        shifted.add(e);
    }
    return shifted;
}

Node::Node(unsigned id, std::size_t template_index,
           const NodeTemplate &tmpl, std::uint64_t fleet_seed,
           double provision_start, double available_at,
           obs::Tracer *tracer)
    : id_(id), tmplIndex_(template_index), name_(tmpl.name),
      pricePerHour_(tmpl.pricePerHour),
      provisionStart_(provision_start), availableAt_(available_at)
{
    if (!tmpl.makeStep)
        cllm_fatal("fleet::Node: template has no step-model factory");
    if (tmpl.pricePerHour < 0.0)
        cllm_fatal("fleet::Node: negative price");
    step_ = tmpl.makeStep();
    cfg_ = tmpl.server;
    cfg_.policy = serve::BatchPolicy::Continuous;
    cfg_.faults = nodeFaultSchedule(tmpl.faults, fleet_seed, id,
                                    availableAt_);
    cfg_.tracer = tracer;
    cfg_.traceLane = traceLane();
    engine_ = std::make_unique<serve::ContinuousEngine>(*step_, cfg_);
    if (cfg_.chunkedPrefill.mode != serve::ChunkMode::Off) {
        const double nseq = cfg_.maxBatch / 2.0;
        const double pos =
            static_cast<double>(tmpl.meanInLenHint);
        if (cfg_.specDecode.enabled) {
            // With speculation on, a prefill slice rides a full
            // propose->verify cycle, not a plain decode step.
            const double k = cfg_.specDecode.draftTokens;
            estDecode_ = cfg_.specDecode.draftCostRatio * k *
                             step_->decodeStep(nseq, pos) +
                         step_->verifyStep(nseq, k, pos);
        } else {
            estDecode_ = step_->decodeStep(nseq, pos);
        }
    }
    estPrefill_ = estimatePrefill(tmpl.meanInLenHint);
}

double
Node::estimatePrefill(unsigned in_len) const
{
    if (cfg_.chunkedPrefill.mode == serve::ChunkMode::Off)
        return step_->prefill(in_len);
    const unsigned chunk = cfg_.chunkedPrefill.chunkTokens;
    double sec = 0.0;
    unsigned done = 0;
    unsigned slices = 0;
    while (done < in_len) {
        const unsigned take = std::min(chunk, in_len - done);
        // Project the loaded case: every slice rides a step that is
        // already streaming the weights for a decode batch.
        sec += step_->prefillChunk(done, take, true);
        done += take;
        ++slices;
    }
    if (slices > 1)
        sec += static_cast<double>(slices - 1) * estDecode_;
    return sec;
}

void
Node::startDrain(double now)
{
    if (draining_ || decommissioned())
        return;
    draining_ = true;
    drainStart_ = now;
}

void
Node::finishDrain()
{
    if (!draining_ || decommissioned())
        cllm_fatal("fleet::Node: finishDrain on a non-draining node");
    decommissionTime_ = std::max(drainStart_, engine_->clock());
}

double
Node::projectedTtft(double now, unsigned in_len) const
{
    const double lag = std::max(0.0, engine_->clock() - now);
    return lag +
           static_cast<double>(engine_->outstanding()) * estPrefill_ +
           estimatePrefill(in_len);
}

double
Node::billedSeconds(double fleet_end) const
{
    const double end =
        decommissioned() ? decommissionTime_ : fleet_end;
    return std::max(0.0, end - provisionStart_);
}

serve::ServeMetrics
Node::metrics() const
{
    return engine_->metrics();
}

} // namespace cllm::fleet
