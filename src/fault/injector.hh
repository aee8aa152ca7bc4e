/**
 * @file
 * The fault injector consumed by the serving loop: it answers, for a
 * simulation clock, "does an admission handshake fail right now?",
 * "how much slower is this decode step?", "how much of the KV pool is
 * usable?", and "did the enclave restart since I last asked?" — and
 * records a timeline of every event that actually influenced the run
 * (when it was first applied and how many requests it touched). The
 * timeline is part of the serving outcome, so the same seed and
 * schedule reproduce it bit-for-bit, and it exports to JSON for
 * downstream tooling.
 */

#ifndef CLLM_FAULT_INJECTOR_HH
#define CLLM_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "fault/schedule.hh"

namespace cllm {
class JsonWriter;
}

namespace cllm::obs {
class Tracer;
}

namespace cllm::fault {

/** One schedule entry annotated with its observed impact. */
struct FaultRecord
{
    FaultEvent event{};
    double applied = -1.0; //!< clock of first impact (-1: never fired)
    unsigned affected = 0; //!< impacted requests / steps
};

/**
 * Stateful adapter between a FaultSchedule and a simulation loop.
 * All queries are deterministic functions of the schedule and the
 * query clock; the injector holds no randomness of its own.
 */
class FaultInjector
{
  public:
    /** An empty injector fires nothing. */
    FaultInjector() = default;

    explicit FaultInjector(const FaultSchedule &schedule);

    /** Whether any events are scheduled at all. */
    bool enabled() const { return !records_.empty(); }

    /**
     * Attach a tracer: the first time each scheduled event actually
     * impacts the run, an instant event with the fault kind and
     * magnitude lands on `lane` at the impact clock. Tracing never
     * feeds back into any query result. Null detaches.
     */
    void setTrace(obs::Tracer *tracer, std::uint32_t lane);

    /**
     * Step-time multiplier at clock `t`: the product of every active
     * EpcStorm window's magnitude (>= 1 when none is active). Each
     * slowed step counts toward the storm's `affected` tally.
     */
    double slowdown(double t);

    /**
     * Whether an admission handshake at clock `t` fails because an
     * AttestFail window is active. Each failed handshake counts
     * toward the window's `affected` tally.
     */
    bool attestationFails(double t);

    /**
     * Usable fraction of the KV pool at clock `t`: 1 minus the summed
     * magnitude of active KvExhaustion windows, clamped to [0, 1].
     */
    double kvCapacityFactor(double t);

    /**
     * Consume every EnclaveRestart event with time <= `t` that has
     * not fired yet; `inflight` requests lose their state per
     * restart. Returns the number of restarts crossed.
     */
    unsigned consumeRestarts(double t, unsigned inflight);

    /** Whether any windowed fault is active (degradation trigger). */
    bool anyWindowActive(double t) const;

    /**
     * Earliest end among windows active at clock `t`, or `t` itself
     * when none is active — the next instant a blocked admission
     * could make progress.
     */
    double nextWindowEnd(double t) const;

    /** Every scheduled event with its observed impact. */
    const std::vector<FaultRecord> &timeline() const
    {
        return records_;
    }

  private:
    void touch(FaultRecord &r, double t, unsigned impact);

    std::vector<FaultRecord> records_;
    std::size_t nextRestart_ = 0;
    obs::Tracer *tracer_ = nullptr;
    std::uint32_t traceLane_ = 0;
};

/**
 * Export a fault timeline as a JSON array of event objects (kind,
 * scheduled time, duration, magnitude, applied time, affected count).
 */
void writeTimeline(JsonWriter &json,
                   const std::vector<FaultRecord> &timeline);

} // namespace cllm::fault

#endif // CLLM_FAULT_INJECTOR_HH
