/**
 * @file
 * The simulated half of a workload: a seeded request trace replayed
 * through `serve::Server` or `fleet::FleetSimulator`. It yields the
 * paper's modeled serving numbers (deterministic for a seed) and the
 * wall-clock speed at which the simulator produces them.
 */

#ifndef PERFBENCH_SIMS_HH
#define PERFBENCH_SIMS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "report.hh"

namespace perfbench {

/** Modeled outcome of one replay plus the counts the checks need. */
struct Modeled
{
    double tokPerS = 0.0;
    double ttftP50 = 0.0;
    double ttftP99 = 0.0;
    double itlP99 = 0.0;
    double sloAttainment = 0.0; //!< over submitted, drops are misses
    double usdPer1kTok = 0.0;

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0; //!< shed + timed out + failed
    std::uint64_t outputTokens = 0;
    std::uint64_t decodeSteps = 0;
    double meanBatch = 0.0;
    bool specEnabled = false;
    bool chunked = false;
    std::uint64_t specTokens = 0; //!< accepted + rejected + bonus
    std::uint64_t nodeCompleted = 0; //!< sum over per-node summaries

    /** Every modeled field at full precision, for byte comparison. */
    std::string digest() const;

    /** Record the closure laws and the end-to-end modeled metrics. */
    void checkInto(Report &r) const;
    void reportInto(Report &r) const;
};

/** A simulated workload built once from its seed. */
class SimWorkload
{
  public:
    virtual ~SimWorkload() = default;

    /** Requests in one replay. */
    virtual std::size_t requests() const = 0;

    /** One untraced replay through the library's public facade. */
    virtual Modeled run() const = 0;

    /**
     * One traced replay: step pricing goes through the timing
     * decorator and per-layer metrics land in `r`. `spans` receives
     * the replay's phase spans.
     */
    virtual Modeled runTraced(Report &r, Spans &spans) const = 0;

    /** Replay a trace with twice the requests (backlog probe). */
    virtual Modeled runDoubled() const = 0;
};

/**
 * `serve_decode`: one continuous-batching TDX CPU server, short
 * prompts and long outputs, Poisson arrivals just under saturation.
 */
std::unique_ptr<SimWorkload> makeServeDecode(std::uint64_t seed,
                                             bool tiny);

/**
 * `fleet_shared_prefix`: heterogeneous TDX CPU + confidential H100
 * fleet, prefix-affinity routing and autoscaling, bursty arrivals of
 * long shared-prefix prompts with short outputs; nodes run paged KV,
 * prefix caching, chunked prefill and speculative decoding.
 */
std::unique_ptr<SimWorkload> makeFleetSharedPrefix(std::uint64_t seed,
                                                   bool tiny);

} // namespace perfbench

#endif // PERFBENCH_SIMS_HH
