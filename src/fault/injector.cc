#include "fault/injector.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "util/json.hh"

namespace cllm::fault {

namespace {

bool
windowActive(const FaultEvent &e, double t)
{
    return t >= e.time && t < e.time + e.duration;
}

} // namespace

FaultInjector::FaultInjector(const FaultSchedule &schedule)
{
    records_.reserve(schedule.size());
    for (const FaultEvent &e : schedule.events())
        records_.push_back(FaultRecord{e, -1.0, 0});
}

void
FaultInjector::setTrace(obs::Tracer *tracer, std::uint32_t lane)
{
    tracer_ = tracer;
    traceLane_ = lane;
}

void
FaultInjector::touch(FaultRecord &r, double t, unsigned impact)
{
    if (r.applied < 0.0) {
        r.applied = t;
        if (tracer_ && tracer_->simEnabled()) {
            tracer_->instant(
                traceLane_,
                std::string("fault:") +
                    faultKindName(r.event.kind),
                t,
                {{"scheduled", r.event.time},
                 {"duration", r.event.duration},
                 {"magnitude", r.event.magnitude}},
                {{"cause", faultKindName(r.event.kind)}});
        }
    }
    r.affected += impact;
}

double
FaultInjector::slowdown(double t)
{
    double factor = 1.0;
    for (FaultRecord &r : records_) {
        if (r.event.kind != FaultKind::EpcStorm)
            continue;
        if (!windowActive(r.event, t))
            continue;
        factor *= std::max(1.0, r.event.magnitude);
        touch(r, t, 1);
    }
    return factor;
}

bool
FaultInjector::attestationFails(double t)
{
    bool fails = false;
    for (FaultRecord &r : records_) {
        if (r.event.kind != FaultKind::AttestFail)
            continue;
        if (!windowActive(r.event, t))
            continue;
        touch(r, t, 1);
        fails = true;
    }
    return fails;
}

double
FaultInjector::kvCapacityFactor(double t)
{
    double lost = 0.0;
    for (FaultRecord &r : records_) {
        if (r.event.kind != FaultKind::KvExhaustion)
            continue;
        if (!windowActive(r.event, t))
            continue;
        touch(r, t, 0);
        lost += r.event.magnitude;
    }
    return std::clamp(1.0 - lost, 0.0, 1.0);
}

unsigned
FaultInjector::consumeRestarts(double t, unsigned inflight)
{
    unsigned crossed = 0;
    while (nextRestart_ < records_.size()) {
        // Find the next unfired restart in time order.
        FaultRecord &r = records_[nextRestart_];
        if (r.event.kind != FaultKind::EnclaveRestart) {
            ++nextRestart_;
            continue;
        }
        if (r.event.time > t)
            break;
        touch(r, t, inflight);
        ++crossed;
        ++nextRestart_;
    }
    return crossed;
}

bool
FaultInjector::anyWindowActive(double t) const
{
    for (const FaultRecord &r : records_) {
        if (r.event.duration <= 0.0)
            continue;
        if (windowActive(r.event, t))
            return true;
    }
    return false;
}

double
FaultInjector::nextWindowEnd(double t) const
{
    double end = t;
    bool found = false;
    for (const FaultRecord &r : records_) {
        if (r.event.duration <= 0.0 || !windowActive(r.event, t))
            continue;
        const double e = r.event.time + r.event.duration;
        if (!found || e < end) {
            end = e;
            found = true;
        }
    }
    return end;
}

void
writeTimeline(JsonWriter &json,
              const std::vector<FaultRecord> &timeline)
{
    json.beginArray();
    for (const FaultRecord &r : timeline) {
        json.beginObject();
        json.field("kind", faultKindName(r.event.kind));
        json.field("time", r.event.time);
        json.field("duration", r.event.duration);
        json.field("magnitude", r.event.magnitude);
        json.field("fired", r.applied >= 0.0);
        if (r.applied >= 0.0)
            json.field("applied", r.applied);
        json.field("affected", r.affected);
        json.endObject();
    }
    json.endArray();
}

} // namespace cllm::fault
