/**
 * @file
 * Serving counters, each declared once: a field of `ServeCounters`
 * plus a row of `kServeCounters`. The row names the field's JSON key,
 * its obs registry counter, how a fleet rolls it up across nodes, and
 * the feature group whose flag gates its JSON. The engine tally,
 * `ServeMetrics`, `fleet::FleetMetrics`, both JSON writers, the
 * engine's obs counters and the fleet rollup all walk this table, so
 * adding a counter means adding one field and one row.
 */

#ifndef CLLM_SERVE_COUNTERS_HH
#define CLLM_SERVE_COUNTERS_HH

#include <array>
#include <cstdint>
#include <variant>

#include "util/stats.hh"

namespace cllm {
class JsonWriter;
}

namespace cllm::serve {

/**
 * Every counter an engine tallies over a run. Feature counters stay
 * zero while their feature is off, and the `*Enabled` flags gate their
 * JSON so off-mode output stays byte-stable. With speculation on,
 * specAccepted + specRejected + specBonus == emittedTokens; in a run
 * without restarts or timeouts, emittedTokens == outputTokens.
 */
struct ServeCounters
{
    // Engine work, tracked in every mode, never in JSON.
    std::uint64_t prefills = 0;      //!< prefills landed (whole/last slice)
    std::uint64_t decodeSteps = 0;   //!< target decode/verify passes
    std::uint64_t emittedTokens = 0; //!< tokens decode steps emitted

    // Paged-KV scheduling (all zero in reserved mode).
    std::uint64_t kvPreemptions = 0; //!< sequences evicted mid-decode
    std::uint64_t kvSwapOuts = 0;    //!< preemptions that swapped to EPC
    std::uint64_t kvSwapIns = 0;     //!< resumes paid as swap-in
    double kvSwapSeconds = 0.0;      //!< total EPC boundary traffic time

    // Prefix caching.
    bool prefixEnabled = false;
    std::uint64_t prefixHits = 0;   //!< admissions reusing cached KV
    std::uint64_t prefixMisses = 0; //!< admissions finding no prefix
    std::uint64_t prefixCachedTokens = 0;    //!< prefill tokens skipped
    std::uint64_t prefillTokensComputed = 0; //!< paid, in every mode
    std::uint64_t prefixEvictions = 0;       //!< leaf evictions
    std::uint64_t prefixEvictedBlocks = 0;
    std::uint64_t prefixPinnedPeak = 0; //!< peak pinned blocks

    // Chunked prefill. maxStepPrefillTokens is tracked in every mode
    // (the differential tests compare it across modes).
    bool chunkedEnabled = false;
    std::uint64_t chunkSlices = 0;        //!< prefill slices executed
    std::uint64_t chunkPrefillTokens = 0; //!< tokens across all slices
    std::uint64_t mixedSteps = 0;         //!< steps running both phases
    std::uint64_t starvationKicks = 0;    //!< forced slices past budget
    std::uint64_t maxStepPrefillTokens = 0; //!< worst single step

    // Speculative decoding.
    bool specEnabled = false;
    std::uint64_t specVerifySteps = 0; //!< propose->verify cycles
    std::uint64_t specDraftTokens = 0; //!< draft tokens proposed
    std::uint64_t specAccepted = 0;    //!< draft tokens accepted
    std::uint64_t specRejected = 0;    //!< rejection-resampled tokens
    std::uint64_t specBonus = 0;       //!< bonus tokens (k/k accepted)

    // Resilience (all zero in a fault-free default run).
    std::uint64_t retries = 0;          //!< re-queued admissions
    std::uint64_t shed = 0;             //!< rejected under KV pressure
    std::uint64_t timedOut = 0;         //!< dropped past their deadline
    std::uint64_t failed = 0;           //!< dropped: retry budget spent
    std::uint64_t restarts = 0;         //!< enclave restarts survived
    std::uint64_t attestRejections = 0; //!< failed admission handshakes
    double faultDowntime = 0.0;         //!< seconds re-provisioning
};

/** How a fleet rolls a counter up across its nodes. */
enum class Rollup
{
    Sum,
    Max,
    Any, //!< logical OR; the rule of every flag
};

/**
 * Feature group of a counter, in JSON order. A group holding a flag
 * (an `Any` row) emits its JSON only while the flag is set; the other
 * groups always emit.
 */
enum class CounterGroup
{
    Engine,
    Kv,
    Prefix,
    Chunk,
    Spec,
    Resilience,
};

/** One row of the counter table. */
struct CounterDef
{
    std::variant<std::uint64_t ServeCounters::*, double ServeCounters::*,
                 bool ServeCounters::*>
        member;
    const char *json; //!< JSON key; null = never emitted
    const char *obs;  //!< obs registry counter; null = none
    Rollup rollup;
    CounterGroup group;
};

/** The counter table, in `ServeCounters` field order. */
inline constexpr auto kServeCounters = [] {
    using C = ServeCounters;
    using enum Rollup;
    using enum CounterGroup;
    constexpr const char *none = nullptr;
    return std::to_array<CounterDef>({
        {&C::prefills, none, "serve.prefills", Sum, Engine},
        {&C::decodeSteps, none, "serve.decode_steps", Sum, Engine},
        {&C::emittedTokens, none, "serve.output_tokens", Sum, Engine},

        {&C::kvPreemptions, "kv_preemptions", "serve.kv_preempts", Sum, Kv},
        {&C::kvSwapOuts, "kv_swap_outs", "serve.kv_swap_outs", Sum, Kv},
        {&C::kvSwapIns, "kv_swap_ins", "serve.kv_swap_ins", Sum, Kv},
        {&C::kvSwapSeconds, "kv_swap_s", none, Sum, Kv},

        {&C::prefixEnabled, none, none, Any, Prefix},
        {&C::prefixHits, "prefix_hits", "serve.prefix_hits", Sum, Prefix},
        {&C::prefixMisses, "prefix_misses", "serve.prefix_misses", Sum,
         Prefix},
        {&C::prefixCachedTokens, "prefix_cached_tokens", none, Sum, Prefix},
        {&C::prefillTokensComputed, "prefill_tokens_computed", none, Sum,
         Prefix},
        {&C::prefixEvictions, "prefix_evictions", none, Sum, Prefix},
        {&C::prefixEvictedBlocks, "prefix_evicted_blocks",
         "serve.prefix_evicted_blocks", Sum, Prefix},
        {&C::prefixPinnedPeak, "prefix_pinned_peak_blocks", none, Max,
         Prefix},

        {&C::chunkedEnabled, none, none, Any, Chunk},
        {&C::chunkSlices, "chunk_slices", "serve.chunk_slices", Sum, Chunk},
        {&C::chunkPrefillTokens, "chunk_prefill_tokens",
         "serve.chunk_prefill_tokens", Sum, Chunk},
        {&C::mixedSteps, "mixed_steps", "serve.chunk_mixed_steps", Sum,
         Chunk},
        {&C::starvationKicks, "starvation_kicks",
         "serve.chunk_starvation_kicks", Sum, Chunk},
        {&C::maxStepPrefillTokens, "max_step_prefill_tokens", none, Max,
         Chunk},

        {&C::specEnabled, none, none, Any, Spec},
        {&C::specVerifySteps, "spec_verify_steps", "serve.spec_verify_steps",
         Sum, Spec},
        {&C::specDraftTokens, "spec_draft_tokens", "serve.spec_draft_tokens",
         Sum, Spec},
        {&C::specAccepted, "spec_accepted_tokens",
         "serve.spec_accepted_tokens", Sum, Spec},
        {&C::specRejected, "spec_rejected_tokens",
         "serve.spec_rejected_tokens", Sum, Spec},
        {&C::specBonus, "spec_bonus_tokens", "serve.spec_bonus_tokens", Sum,
         Spec},

        {&C::retries, "retries", none, Sum, Resilience},
        {&C::shed, "shed", none, Sum, Resilience},
        {&C::timedOut, "timed_out", none, Sum, Resilience},
        {&C::failed, "failed", none, Sum, Resilience},
        {&C::restarts, "restarts", none, Sum, Resilience},
        {&C::attestRejections, "attest_rejections", none, Sum, Resilience},
        {&C::faultDowntime, "fault_downtime_s", none, Sum, Resilience},
    });
}();

/** Roll `from` into `into`, row by row, by each row's rule. */
void mergeCounters(ServeCounters &into, const ServeCounters &from);

/** Whether `group`'s JSON is emitted (its flag, if it has one). */
bool groupEnabled(const ServeCounters &c, CounterGroup group);

/**
 * Emit the JSON fields of the groups `first`..`last`, in table order,
 * skipping gated groups whose flag is clear. The chunk block opens
 * with the ITL summary; the spec block closes with the mean accepted
 * length, plus the ITL summary when the chunk block did not print it.
 */
void writeCounters(JsonWriter &json, const ServeCounters &c,
                   const SampleSummary &itl, CounterGroup first,
                   CounterGroup last);

/**
 * Mean accepted draft length per verify cycle. Each per-sequence
 * cycle ends in either a bonus token (k/k accepted) or a rejection
 * resample, so bonus + rejected counts cycles. 0 without cycles.
 */
double specMeanAcceptedLen(const ServeCounters &c);

/** Share of prefix-cache lookups that hit; 0 without lookups. */
double prefixHitRate(const ServeCounters &c);

} // namespace cllm::serve

#endif // CLLM_SERVE_COUNTERS_HH
