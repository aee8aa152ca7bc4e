/**
 * @file
 * Incremental serving engine: the one simulation loop of
 * `serve::Server`, for static and continuous batching alike, driven
 * one iteration at a time. `Server` submits the full trace and
 * iterates to quiescence, while the fleet simulator (`src/fleet`)
 * feeds requests in as a router dispatches them and interleaves many
 * engines under one discrete-event clock.
 */

#ifndef CLLM_SERVE_ENGINE_HH
#define CLLM_SERVE_ENGINE_HH

#include <array>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "serve/prefix_cache.hh"
#include "serve/serving.hh"

namespace cllm::obs {
class Counter;
}

namespace cllm::serve {

/**
 * One server simulation, driven iteration by iteration. Construction
 * validates the config; `submit` enqueues a request for admission at
 * `ready_at`; `iterate` performs one loop iteration (restart handling,
 * admission, then either a time advance or one engine step).
 *
 * The batching policy is an admission rule. Continuous batching admits
 * at every iteration whatever is ready by the running clock. Static
 * batching admits only into an empty batch, and only requests ready
 * when that batch opens; everything after admission is shared.
 *
 * Every engine step — plain decode, a speculative propose->verify
 * cycle, or a chunked mixed prefill/decode step — runs the same three
 * stages: plan (draft widths, KV growth, decoder/prefiller split,
 * prefill slices), price (StepModel calls and trace spans), apply
 * (emission, acceptance, KV trim, completion, prefill landing).
 */
class ContinuousEngine
{
  public:
    ContinuousEngine(const StepModel &step, const ServerConfig &cfg);

    /** Offer a request for admission no earlier than `ready_at`. */
    void submit(Request *r, double ready_at, unsigned attempts = 0);

    /** True when nothing is pending or active. */
    bool idle() const { return pending_.empty() && active_.empty(); }

    /**
     * Earliest simulation time the next `iterate` could act at: the
     * current clock while a batch is running, the head-of-queue ready
     * time when idle with queued work, +infinity when fully idle.
     */
    double nextReadyTime() const;

    /**
     * One loop iteration; no-op when idle.
     *
     * `admit_horizon` is the time of the earliest request the caller
     * knows about but has not submitted yet (a fleet driver's next
     * unrouted arrival). Once the clock reaches it the admission loop
     * pauses and returns without stepping, so the caller can submit
     * the newcomer and re-enter; admission then resumes in the same
     * (readyAt, id) order a fully pre-submitted run would have used.
     * With everything submitted up front (Server::run) the default
     * horizon never pauses anything.
     *
     * The obs counters (`kServeCounters` rows with an obs name) are
     * published when an iteration leaves the engine idle, not after
     * every step. An idle engine's whole tally is in the registry; a
     * busy one's lags by its current busy period. So whenever every
     * engine is idle, each registry total equals the sum of the
     * engines' tally fields (over every engine the process ran).
     */
    void iterate(double admit_horizon =
                     std::numeric_limits<double>::infinity());

    // -- Live state signals (router / autoscaler inputs) -------------
    double clock() const { return clock_; }
    std::size_t activeCount() const { return active_.size(); }
    std::size_t pendingCount() const { return pending_.size(); }
    std::size_t outstanding() const
    {
        return active_.size() + pending_.size();
    }
    /** Free fraction of the KV pool (1.0 when unbounded). */
    double kvHeadroom() const;
    /** Free KV blocks (UINT64_MAX when unbounded). */
    std::uint64_t kvFreeBlocks() const;
    std::uint64_t kvUsedBlocks() const;
    std::uint64_t kvTotalBlocks() const;
    /** Used fraction of the KV pool right now (0 when unbounded). */
    double kvUtilization() const;
    const StepModel &stepModel() const { return *step_; }

    /** Whether automatic prefix caching is live on this engine. */
    bool prefixEnabled() const { return prefix_.has_value(); }
    /** Blocks currently pinned by the prefix cache (0 when off). */
    std::uint64_t prefixPinnedBlocks() const
    {
        return prefix_ ? prefix_->pinnedBlocks() : 0;
    }

    // -- Run outcome --------------------------------------------------
    const ServeTally &tally() const { return tally_; }
    double occupancySum() const { return occupancySum_; }
    std::size_t steps() const { return steps_; }
    double kvPeak() const { return kvPeak_; }
    /**
     * Mean KV occupancy sampled once per engine step (after KV
     * growth), prefill-only chunk steps included.
     */
    double kvUtilizationMean() const
    {
        return steps_ ? kvUtilSum_ / static_cast<double>(steps_)
                      : 0.0;
    }
    /**
     * Largest number of active sequences any engine step ran with,
     * prefilling sequences in chunked steps included.
     */
    std::size_t peakBatch() const { return maxActive_; }
    const std::vector<fault::FaultRecord> &timeline() const;

    /**
     * The run's metrics so far: finalizeRequests over every submitted
     * request, plus the KV, batch and fault-timeline readings only the
     * engine holds. The shared tail of a Server run and a fleet node.
     */
    ServeMetrics metrics() const;

    /** Every request ever submitted, in submission order. */
    const std::vector<const Request *> &submitted() const
    {
        return submitted_;
    }

  private:
    struct ActiveSeq
    {
        Request *req;
        unsigned produced = 0;
        unsigned attempts = 0;
        // Chunked-prefill progress: prompt tokens whose KV is live
        // (prefillDone) against the tokens this life must prefill
        // (prefillTarget). A sequence decodes only once
        // prefillDone >= prefillTarget; monolithic admissions set
        // both to 0, so the predicate is phase-agnostic.
        unsigned prefillDone = 0;
        unsigned prefillTarget = 0;
        // Consecutive budget-starved iterations (starvation guard).
        unsigned stallIters = 0;
        // Draft tokens this speculative cycle proposes for the
        // sequence (0 outside spec mode); set before KV growth so the
        // pool can make room for k drafts plus the emitted token.
        unsigned draftK = 0;
        // Completion time of this sequence's last emitted token, the
        // baseline for inter-token-latency samples. Carried across
        // preemptions and retries so ITL stays client-perceived.
        double lastEmit = -1.0;
    };

    struct PendingReq
    {
        Request *req;
        double readyAt;
        unsigned attempts;
        // Paged-mode resume state: tokens already generated before a
        // preemption (never re-emitted), and whether the KV pages sit
        // swapped out in EPC-backed memory rather than discarded.
        unsigned produced = 0;
        bool swapped = false;
        // Last token-emission time before the requeue (ITL carry).
        double lastEmit = -1.0;
    };

    /** Min-heap order: earliest readyAt first, ties by request id. */
    struct PendingLater
    {
        bool
        operator()(const PendingReq &a, const PendingReq &b) const
        {
            if (a.readyAt != b.readyAt)
                return a.readyAt > b.readyAt;
            return a.req->id > b.req->id;
        }
    };

    bool canAdmit(const Request &r, unsigned produced, double factor,
                  std::uint64_t shared_blocks = 0) const;
    /**
     * Admission gate with prefix awareness: probes the cache for the
     * request's shared-prefix block credit and, when the pool is
     * still short, evicts LRU cached prefixes until the request fits
     * or nothing evictable remains. Re-probes after every eviction
     * round (eviction may have reclaimed part of the match).
     */
    bool admitCheck(const Request &r, unsigned produced, double factor,
                    bool swapped);
    /**
     * Restart handling and the admission loop of one iteration. False
     * when the iteration ends without a step (paused at the horizon,
     * waiting on a blocked queue head, or nothing left to run).
     */
    bool admit(double admit_horizon);
    void syncPrefixTally();
    void requeue(Request *r, unsigned attempts,
                 double last_emit = -1.0);
    double swapSeconds(unsigned tokens) const;
    void preemptActive(std::size_t idx);
    /**
     * Make KV room for this step's tokens: one per decoding sequence,
     * plus its draft width in spec mode. Prefilling sequences already
     * hold their whole resident context and are skipped.
     */
    void growPaged();
    /** Plan, price and apply one engine step. */
    void step();
    /**
     * Decide the step's contents: draft widths, KV growth, which
     * sequences decode, and the prefill slices under the token budget.
     * False when growth preempted the whole batch.
     */
    bool planStep();
    /** Price the planned step, lay out its trace spans, advance time. */
    void priceStep();
    /**
     * Account the priced step and walk the batch once: slice progress
     * and first-token marking for sequences whose last slice landed,
     * deadlines, acceptance, emission, completion, rejected-draft trim.
     */
    void applyStep();
    void publishKvGauges() const;
    /** Bring the obs counters up to date with the tally (on idle). */
    void publishCounters();

    /** One prefill slice of a step: `tokens` prompt tokens. */
    struct Slice
    {
        std::size_t idx; //!< into active_
        unsigned tokens;
        bool forced; //!< granted by the starvation guard
    };

    /** A step's contents, rebuilt in place every step. */
    struct StepPlan
    {
        // The step began with a sequence still prefilling (chunked
        // mode). Its phases accumulate onto the clock one at a time;
        // a pure speculative step adds draft + verify as one sum.
        bool mixed = false;
        unsigned ndecode = 0;
        double avgPos = 0.0; //!< mean context depth of the decoders
        double meanK = 0.0;  //!< mean draft width of the decoders
        std::vector<Slice> slices;
    };

    /** A deferred pool update: trim to `keep` tokens, 0 = release. */
    struct KvOp
    {
        mem::KvSeqId id;
        unsigned keep;
    };

    const StepModel *step_;
    ServerConfig cfg_;
    bool chunked_ = false;
    bool spec_ = false;
    fault::FaultInjector inj_;
    std::optional<mem::PagedKvCache> pool_;
    std::optional<PrefixCache> prefix_;

    double clock_ = 0.0;
    double occupancySum_ = 0.0;
    double kvPeak_ = 0.0;
    double kvUtilSum_ = 0.0; //!< KV occupancy summed over steps
    std::size_t maxActive_ = 0;
    std::size_t steps_ = 0;
    ServeTally tally_{};
    ServeCounters published_{}; //!< tally as of the last publish
    std::array<obs::Counter *, kServeCounters.size()> obsCounters_{};

    // Admission-pause state: a horizon pause must resume the SAME
    // loop iteration, so the fault snapshot taken at iteration start
    // (restart sweep, KV capacity factor, degraded batch cap) carries
    // over instead of being re-sampled mid-iteration.
    bool inAdmission_ = false;
    double admitKvFactor_ = 1.0;
    unsigned admitMaxBatch_ = 0;
    double admitOpened_ = 0.0; //!< clock when the admission loop began

    StepPlan plan_;
    std::vector<KvOp> kvOps_;

    std::vector<ActiveSeq> active_;
    std::priority_queue<PendingReq, std::vector<PendingReq>,
                        PendingLater>
        pending_;
    std::vector<const Request *> submitted_;
};

/**
 * Build a ServeMetrics from annotated requests: the request-level part
 * of ContinuousEngine::metrics, also used by the fleet rollup. `itl`
 * holds every engine's per-token gaps; they are summarized as one
 * multiset, in the order given. Panics only when a non-empty request
 * set completed nothing without any being dropped (a simulation bug).
 */
ServeMetrics finalizeRequests(const std::vector<const Request *> &reqs,
                              double makespan, double occupancy_sum,
                              std::size_t steps,
                              const ServeCounters &counters,
                              std::span<const RunLengthSamples *const> itl,
                              double ttft_slo, double tpot_slo);

/** finalizeRequests() of one engine's tally. */
inline ServeMetrics
finalizeRequests(const std::vector<const Request *> &reqs,
                 double makespan, double occupancy_sum, std::size_t steps,
                 const ServeTally &tally, double ttft_slo, double tpot_slo)
{
    const RunLengthSamples *const itl = &tally.itlSamples;
    return finalizeRequests(reqs, makespan, occupancy_sum, steps, tally,
                            {&itl, 1}, ttft_slo, tpot_slo);
}

} // namespace cllm::serve

#endif // CLLM_SERVE_ENGINE_HH
