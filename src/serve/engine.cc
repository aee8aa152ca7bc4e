#include "serve/engine.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cllm::serve {

namespace {

/** Request-lifecycle async category shared by every engine event. */
constexpr const char *kReqCat = "request";

/**
 * Whether the target accepts draft position `pos` (0-based output
 * index) of request `id`: a uniform draw in [0, 1) keyed purely on
 * (spec seed, request id, position), so the outcome is identical at
 * any CLLM_THREADS setting and replays bit-exactly when a preempted
 * or restarted sequence regenerates the same positions.
 */
bool
specAccept(const SpecDecodePolicy &sp, std::uint32_t id, unsigned pos)
{
    const std::uint64_t h = splitSeed(splitSeed(sp.seed, id), pos);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < sp.acceptProb;
}

/** The config's tracer when sim recording is live, else null. */
obs::Tracer *
simTracer(const ServerConfig &cfg)
{
    return cfg.tracer && cfg.tracer->simEnabled() ? cfg.tracer
                                                  : nullptr;
}

} // namespace

ContinuousEngine::ContinuousEngine(const StepModel &step,
                                   const ServerConfig &cfg)
    : step_(&step), cfg_(cfg), inj_(cfg_.faults)
{
    inj_.setTrace(cfg_.tracer, cfg_.traceLane);
    validate(cfg_);
    chunked_ = cfg_.chunkedPrefill.mode != ChunkMode::Off;
    spec_ = cfg_.specDecode.enabled;
    tally_.chunkedEnabled = chunked_;
    tally_.specEnabled = spec_;
    if (cfg_.kvBlocks)
        pool_.emplace(
            mem::PagedKvConfig{cfg_.kvBlocks, cfg_.kvBlockTokens});
    if (cfg_.prefixMode != PrefixMode::Off) {
        // &*pool_ is stable: the optional is never re-emplaced.
        prefix_.emplace(cfg_.prefixMode, &*pool_,
                        cfg_.prefix.maxBlocks);
        tally_.prefixEnabled = true;
    }
}

void
ContinuousEngine::submit(Request *r, double ready_at, unsigned attempts)
{
    if (!r->promptTokens.empty() &&
        r->promptTokens.size() != r->inLen)
        cllm_fatal("ContinuousEngine: prompt token count mismatch "
                   "for request ",
                   r->id);
    // Every engine step emits at least one token per decoder, so a
    // zero-length generation would over-emit and, in spec mode, draw
    // a draft width past the admission-checked context.
    if (r->outLen == 0)
        cllm_fatal("ContinuousEngine: zero output length for request ",
                   r->id);
    pending_.push({r, ready_at, attempts, 0, false, -1.0});
    submitted_.push_back(r);
    if (obs::Tracer *t = simTracer(cfg_); t && attempts == 0)
        t->asyncBegin(cfg_.traceLane, kReqCat, r->id, "req",
                      std::max(r->arrival, ready_at));
}

double
ContinuousEngine::nextReadyTime() const
{
    if (!active_.empty())
        return clock_;
    if (!pending_.empty())
        return std::max(clock_, pending_.top().readyAt);
    return std::numeric_limits<double>::infinity();
}

double
ContinuousEngine::kvHeadroom() const
{
    return pool_ ? 1.0 - pool_->utilization() : 1.0;
}

std::uint64_t
ContinuousEngine::kvFreeBlocks() const
{
    return pool_ ? pool_->freeBlocks()
                 : std::numeric_limits<std::uint64_t>::max();
}

std::uint64_t
ContinuousEngine::kvUsedBlocks() const
{
    return pool_ ? pool_->usedBlocks() : 0;
}

std::uint64_t
ContinuousEngine::kvTotalBlocks() const
{
    return pool_ ? pool_->totalBlocks() : 0;
}

double
ContinuousEngine::kvUtilization() const
{
    return pool_ ? pool_->utilization() : 0.0;
}

const std::vector<fault::FaultRecord> &
ContinuousEngine::timeline() const
{
    return inj_.timeline();
}

// Admission check, optionally against a pool whose usable share has
// been shrunk by an active KvExhaustion window. Reserved mode needs
// the full inLen+outLen up front; paged mode needs only the resident
// context (prompt plus tokens already generated before a preemption)
// while keeping `minFreeBlocks` of headroom, and refuses outright a
// request whose full context could never fit.
bool
ContinuousEngine::canAdmit(const Request &r, unsigned produced,
                           double factor,
                           std::uint64_t shared_blocks) const
{
    if (!pool_)
        return true;
    std::uint64_t need;
    if (cfg_.kvMode == KvMode::Paged) {
        const std::uint64_t reserve = cfg_.paged.minFreeBlocks;
        if (pool_->blocksFor(r.inLen + r.outLen) + reserve >
            cfg_.kvBlocks)
            return false;
        // Blocks already cached for this prompt's prefix are shared,
        // not allocated, so they come off the admission bill.
        need = pool_->blocksFor(r.inLen + produced) - shared_blocks +
               reserve;
        if (need > pool_->freeBlocks())
            return false;
    } else {
        if (!pool_->canAdmit(r.inLen + r.outLen))
            return false;
        need = (r.inLen + r.outLen + cfg_.kvBlockTokens - 1) /
               cfg_.kvBlockTokens;
    }
    if (factor >= 1.0)
        return true;
    const std::uint64_t used = cfg_.kvBlocks - pool_->freeBlocks();
    const auto usable = static_cast<std::uint64_t>(
        factor * static_cast<double>(cfg_.kvBlocks));
    return used + need <= usable;
}

bool
ContinuousEngine::admitCheck(const Request &r, unsigned produced,
                             double factor, bool swapped)
{
    if (!prefix_)
        return canAdmit(r, produced, factor);
    // A request whose full context can never fit is hopeless no
    // matter what gets evicted; refuse before draining the cache.
    if (pool_->blocksFor(r.inLen + r.outLen) +
            cfg_.paged.minFreeBlocks >
        cfg_.kvBlocks)
        return false;
    // A swapped-out victim resumes with its KV image intact — the
    // cache is not consulted (matching would double-credit tokens the
    // swap-in already pays for).
    const bool use_cache = !swapped && !r.promptTokens.empty();
    for (;;) {
        std::uint64_t shared = 0;
        if (use_cache)
            shared = prefix_->peek(r.tenant, r.promptTokens)
                         .blocks.size();
        if (canAdmit(r, produced, factor, shared))
            return true;
        // Short on blocks: evict LRU cached prefixes, then re-probe —
        // eviction may have reclaimed part of this prompt's own
        // match, shrinking the credit.
        const std::uint64_t need =
            pool_->blocksFor(r.inLen + produced) - shared +
            cfg_.paged.minFreeBlocks;
        const std::uint64_t free = pool_->freeBlocks();
        const std::uint64_t want = need > free ? need - free : 1;
        const std::uint64_t freed = prefix_->evictToFree(want, clock_);
        if (freed == 0)
            return false;
        syncPrefixTally();
        if (obs::Tracer *t = simTracer(cfg_))
            t->instant(cfg_.traceLane, "prefix.evict", clock_,
                       {{"blocks", static_cast<double>(freed)}});
    }
}

void
ContinuousEngine::syncPrefixTally()
{
    const PrefixCacheStats &s = prefix_->stats();
    tally_.prefixHits = s.hits;
    tally_.prefixMisses = s.misses;
    tally_.prefixCachedTokens = s.hitTokens;
    tally_.prefixEvictions = s.evictions;
    tally_.prefixEvictedBlocks = s.evictedBlocks;
    tally_.prefixPinnedPeak = std::max<std::uint64_t>(
        tally_.prefixPinnedPeak, prefix_->pinnedBlocks());
}

/** EPC boundary traffic time to move a `tokens`-token KV image. */
double
ContinuousEngine::swapSeconds(unsigned tokens) const
{
    const auto bytes = static_cast<std::uint64_t>(
        cfg_.paged.kvBytesPerToken * static_cast<double>(tokens));
    return cfg_.paged.epcCost.swapSeconds(bytes);
}

// Evict one active sequence to make room: release its blocks, charge
// the policy's cost, and requeue it with its generated-token count
// intact so nothing already emitted is ever re-emitted.
void
ContinuousEngine::preemptActive(std::size_t idx)
{
    ActiveSeq victim = active_[idx];
    active_.erase(active_.begin() +
                  static_cast<std::ptrdiff_t>(idx));
    // Read before the release: a spec victim caught between growth and
    // emission still holds unverified draft KV past inLen + produced.
    const bool mid_verify =
        spec_ && pool_->tokens(victim.req->id) >
                     victim.req->inLen + victim.produced;
    pool_->release(victim.req->id);
    ++tally_.kvPreemptions;
    obs::Tracer *tr = simTracer(cfg_);
    if (tr)
        tr->instant(cfg_.traceLane, "kv.preempt", clock_,
                    {{"req", static_cast<double>(victim.req->id)},
                     {"produced",
                      static_cast<double>(victim.produced)}});
    bool swapped = false;
    // A victim still mid-prefill (chunked mode only) always resumes
    // by recomputation: its KV image is partial, so swapping it out
    // would pay EPC traffic for blocks holding nothing worth keeping.
    // The same goes for a victim caught mid-verify: its trailing
    // draft KV is speculative, so it recomputes from its last
    // verified token instead of swapping unverified state.
    const bool mid_prefill =
        victim.prefillDone < victim.prefillTarget;
    if (cfg_.paged.preempt == KvPreemptPolicy::SwapToEpc &&
        !mid_prefill && !mid_verify) {
        const double t0 = clock_;
        const double sec =
            swapSeconds(victim.req->inLen + victim.produced);
        clock_ += sec;
        tally_.kvSwapSeconds += sec;
        ++tally_.kvSwapOuts;
        swapped = true;
        if (tr)
            tr->complete(
                cfg_.traceLane, "kv.swap", t0, clock_,
                {{"req", static_cast<double>(victim.req->id)},
                 {"dir", 0.0}});
    }
    // Not a fault retry: re-enters the queue at the same attempt
    // count, ordered by (readyAt, id) like any other pending request.
    pending_.push({victim.req, clock_, victim.attempts,
                   victim.produced, swapped, victim.lastEmit});
}

// Before a paged step every decoding sequence must be able to append
// this step's tokens: one, plus its draft width in spec mode.
// Prefilling sequences (chunked mode) already hold their whole
// resident context and are skipped. Grow in index order (admission
// order); on pool exhaustion evict from the tail (LIFO — the youngest
// sequence has the least sunk cost), whatever phase it is in, or the
// growing sequence itself when it is the youngest. The head of the
// batch can always finish: admission guaranteed its full context fits
// in the pool alone.
void
ContinuousEngine::growPaged()
{
    for (std::size_t i = 0; i < active_.size();) {
        const ActiveSeq &a = active_[i];
        if (a.prefillDone < a.prefillTarget) {
            ++i;
            continue;
        }
        Request *r = a.req;
        // draftK <= outLen-produced-1 keeps the target inside the
        // admission-checked full context.
        const unsigned target = r->inLen + a.produced + a.draftK + 1u;
        if (pool_->tokens(r->id) >= target) {
            ++i;
            continue;
        }
        const bool needs_block =
            pool_->tokens(r->id) % cfg_.kvBlockTokens == 0;
        if (needs_block && pool_->freeBlocks() == 0) {
            // Cached prefixes are the cheapest thing to give back:
            // reclaim idle cache blocks before preempting a live
            // sequence (which costs recompute or swap traffic).
            if (prefix_) {
                const std::uint64_t freed =
                    prefix_->evictToFree(1, clock_);
                if (freed > 0) {
                    syncPrefixTally();
                    continue;
                }
            }
            preemptActive(i + 1 < active_.size() ? active_.size() - 1
                                                 : i);
            continue; // retry the same slot (or fall off the end)
        }
        if (!pool_->appendToken(r->id))
            cllm_panic("paged KV append failed with free blocks");
    }
}

void
ContinuousEngine::publishKvGauges() const
{
    static obs::Gauge &used =
        obs::Registry::global().gauge("serve.kv_blocks_used");
    static obs::Gauge &free =
        obs::Registry::global().gauge("serve.kv_blocks_free");
    used.set(static_cast<double>(pool_->usedBlocks()));
    free.set(static_cast<double>(pool_->freeBlocks()));
    if (prefix_) {
        static obs::Gauge &pinned = obs::Registry::global().gauge(
            "serve.prefix_pinned_blocks");
        pinned.set(static_cast<double>(prefix_->pinnedBlocks()));
    }
}

// Add each counter's growth since the last publish to its obs counter.
// Called when an iteration leaves the engine idle, so a busy period
// pays one table walk, not one per step. A counter that never moves
// never registers, so a run with a feature off leaves that feature's
// counters out of the registry.
void
ContinuousEngine::publishCounters()
{
    for (std::size_t i = 0; i < kServeCounters.size(); ++i) {
        const CounterDef &d = kServeCounters[i];
        if (!d.obs)
            continue;
        const auto m = std::get<std::uint64_t ServeCounters::*>(d.member);
        if (tally_.*m == published_.*m)
            continue;
        if (!obsCounters_[i])
            obsCounters_[i] = &obs::Registry::global().counter(d.obs);
        obsCounters_[i]->add(tally_.*m - published_.*m);
        published_.*m = tally_.*m;
    }
}

// Bounded retry with exponential backoff; a request that spends its
// budget is dropped for good.
void
ContinuousEngine::requeue(Request *r, unsigned attempts,
                          double last_emit)
{
    const ResiliencePolicy &rp = cfg_.resilience;
    obs::Tracer *t = simTracer(cfg_);
    if (attempts > rp.maxRetries) {
        ++tally_.failed;
        if (t) {
            t->instant(cfg_.traceLane, "retries_exhausted", clock_,
                       {{"req", static_cast<double>(r->id)}});
            t->asyncEnd(cfg_.traceLane, kReqCat, r->id, "failed",
                        clock_);
        }
        return;
    }
    ++tally_.retries;
    double backoff = rp.retryBackoff;
    for (unsigned i = 1; i < attempts; ++i)
        backoff *= rp.backoffMultiplier;
    pending_.push({r, clock_ + backoff, attempts, 0, false,
                   last_emit});
    if (t)
        t->asyncInstant(cfg_.traceLane, kReqCat, r->id, "retry",
                        clock_);
}

void
ContinuousEngine::iterate(double admit_horizon)
{
    if (idle())
        return;
    if (admit(admit_horizon))
        step();
    if (idle())
        publishCounters();
}

bool
ContinuousEngine::admit(double admit_horizon)
{
    const ResiliencePolicy &rp = cfg_.resilience;
    obs::Tracer *tr = simTracer(cfg_);
    const std::uint32_t lane = cfg_.traceLane;
    const bool fixed = cfg_.policy == BatchPolicy::Static;

    double kv_factor = 1.0;
    unsigned max_batch = cfg_.maxBatch;
    double opened = clock_;
    if (inAdmission_) {
        // Resuming a horizon-paused admission loop: keep the fault
        // snapshot sampled when this iteration started.
        inAdmission_ = false;
        kv_factor = admitKvFactor_;
        max_batch = admitMaxBatch_;
        opened = admitOpened_;
    } else {
        // Enclave/TD restarts wipe everything in secure memory: the
        // KV pool, the weights, the attested session state. Pay the
        // re-provisioning downtime and retry what was in flight.
        if (inj_.enabled()) {
            const unsigned crossed = inj_.consumeRestarts(
                clock_, static_cast<unsigned>(active_.size()));
            if (crossed) {
                const double t0 = clock_;
                const double down =
                    crossed *
                    cfg_.reprovision.seconds(cfg_.weightBytes);
                clock_ += down;
                tally_.faultDowntime += down;
                tally_.restarts += crossed;
                if (tr)
                    tr->complete(
                        lane, "reprovision", t0, clock_,
                        {{"restarts",
                          static_cast<double>(crossed)},
                         {"requeued",
                          static_cast<double>(active_.size())}});
                for (ActiveSeq &a : active_) {
                    if (pool_)
                        pool_->release(a.req->id);
                    requeue(a.req, a.attempts + 1, a.lastEmit);
                }
                active_.clear();
            }
        }

        if (inj_.enabled())
            kv_factor = inj_.kvCapacityFactor(clock_);
        if (rp.degradedMaxBatch && inj_.enabled() &&
            inj_.anyWindowActive(clock_)) {
            max_batch = std::max(
                1u, std::min(max_batch, rp.degradedMaxBatch));
        }
        opened = clock_;
        // Static batching admits nothing while a batch runs.
        if (fixed && !active_.empty())
            max_batch = 0;
    }

    // Admit arrivals up to batch and KV capacity; prefill on
    // admission, reserving the full context worth of blocks. Pause
    // (without stepping) once the clock reaches the caller's horizon:
    // a not-yet-submitted request has become eligible and must enter
    // the queue before any later-ready request is admitted. A static
    // batch takes only requests ready when it opened; arrivals during
    // its prefills wait for the next batch.
    while (active_.size() < max_batch) {
        if (clock_ >= admit_horizon) {
            inAdmission_ = true;
            admitKvFactor_ = kv_factor;
            admitMaxBatch_ = max_batch;
            admitOpened_ = opened;
            return false;
        }
        if (pending_.empty() ||
            pending_.top().readyAt > (fixed ? opened : clock_))
            break;
        const PendingReq p = pending_.top();
        // Deadline: reject queued work already past its budget. A
        // preempted victim timing out here takes its already-emitted
        // tokens back out of the occupancy sum — only completed
        // requests bill tokens, so occupancySum == outputTokens holds
        // in any restart-free run, timeouts included.
        if (rp.requestTimeout > 0.0 &&
            clock_ - p.req->arrival > rp.requestTimeout) {
            pending_.pop();
            ++tally_.timedOut;
            occupancySum_ -= static_cast<double>(p.produced);
            if (tr) {
                tr->instant(
                    lane, "timeout_queued", clock_,
                    {{"req", static_cast<double>(p.req->id)}});
                tr->asyncEnd(lane, kReqCat, p.req->id, "timeout",
                             clock_);
            }
            continue;
        }
        // Admission shedding under KV pressure. A preempted request
        // (produced > 0) is never shed: its generated tokens are
        // already with the client and must not be abandoned.
        if (rp.shedOnKvPressure && pool_ && p.produced == 0 &&
            pool_->utilization() >= rp.shedThreshold) {
            pending_.pop();
            ++tally_.shed;
            if (tr) {
                tr->instant(
                    lane, "shed_kv_pressure", clock_,
                    {{"req", static_cast<double>(p.req->id)},
                     {"kv_util", pool_->utilization()}});
                tr->asyncEnd(lane, kReqCat, p.req->id, "shed",
                             clock_);
            }
            continue;
        }
        // Attestation gate: no verified handshake, no admission; the
        // client backs off and retries.
        if (inj_.enabled() && inj_.attestationFails(clock_)) {
            pending_.pop();
            ++tally_.attestRejections;
            if (tr)
                tr->instant(
                    lane, "attest_reject", clock_,
                    {{"req", static_cast<double>(p.req->id)}});
            requeue(p.req, p.attempts + 1, p.lastEmit);
            continue;
        }
        if (!admitCheck(*p.req, p.produced, kv_factor, p.swapped))
            break;
        pending_.pop();
        Request *r = p.req;
        const bool paged = cfg_.kvMode == KvMode::Paged;
        const bool use_cache = prefix_ && !p.swapped &&
                               !r->promptTokens.empty();
        PrefixMatch pm;
        if (pool_) {
            // Paged admission allocates only the resident context;
            // reserved admission pins the full generation up front. A
            // cached-prefix hit shares the matched blocks instead of
            // allocating them (and counts exactly once, here, at the
            // successful admission).
            const unsigned resident =
                paged ? r->inLen + p.produced : r->inLen + r->outLen;
            bool ok;
            if (use_cache) {
                pm = prefix_->commitMatch(r->tenant, r->promptTokens,
                                          clock_);
                syncPrefixTally();
                ok = pm.tokens > 0
                         ? pool_->addSequenceWithPrefix(
                               r->id, resident, pm.blocks, pm.tokens)
                         : pool_->addSequence(r->id, resident);
            } else {
                ok = pool_->addSequence(r->id, resident);
            }
            if (!ok)
                cllm_panic("KV admission raced the pool");
            if (tr)
                tr->counterValue(lane, "kv_util", clock_,
                                 pool_->utilization());
        }
        const double admit_at = clock_;
        // Cost to make the context live again: a swap-in from EPC
        // for swapped-out victims, else a (re)prefill over prompt
        // plus any previously generated tokens — charged only from
        // the cached-prefix boundary on a hit. Fresh requests have
        // produced == 0, so the reserved-mode cost is unchanged.
        // Chunked mode defers all prefill work to token-budgeted
        // steps: admission just records the progress target (a
        // swap-in still restores the full KV image in one bulk move,
        // so swapped victims resume straight into decode).
        const bool chunk_defer = chunked_ && !(paged && p.swapped);
        double pf;
        if (paged && p.swapped)
            pf = swapSeconds(r->inLen + p.produced);
        else if (chunk_defer)
            pf = 0.0;
        else if (pm.tokens > 0)
            pf = step_->prefillFrom(pm.tokens,
                                    r->inLen + p.produced);
        else
            pf = step_->prefill(r->inLen + p.produced);
        if (!(paged && p.swapped) && !chunk_defer) {
            const std::uint64_t computed =
                r->inLen + p.produced - pm.tokens;
            tally_.prefillTokensComputed += computed;
            // Monolithic prefill hits one step with the whole
            // uncached prompt — the working-set bound chunking exists
            // to shrink; tracked in every mode so the differential
            // tests can compare.
            tally_.maxStepPrefillTokens = std::max(
                tally_.maxStepPrefillTokens, computed);
        }
        if (inj_.enabled())
            pf *= inj_.slowdown(clock_);
        clock_ += pf;
        if (!chunk_defer && r->firstToken < 0.0)
            r->firstToken = clock_;
        ActiveSeq seq{r, p.produced, p.attempts};
        seq.lastEmit = p.lastEmit >= 0.0 ? p.lastEmit : clock_;
        if (chunk_defer) {
            seq.prefillDone = pm.tokens;
            seq.prefillTarget = r->inLen + p.produced;
        }
        active_.push_back(seq);
        if (tr)
            tr->asyncInstant(lane, kReqCat, r->id, "admit",
                             admit_at);
        if (paged && p.swapped) {
            tally_.kvSwapSeconds += pf;
            ++tally_.kvSwapIns;
            if (tr)
                tr->complete(lane, "kv.swap", admit_at, clock_,
                             {{"req", static_cast<double>(r->id)},
                              {"dir", 1.0}});
        } else if (!chunk_defer) {
            ++tally_.prefills;
            if (tr)
                tr->complete(
                    lane, "prefill", admit_at, clock_,
                    {{"req", static_cast<double>(r->id)},
                     {"in_len",
                      static_cast<double>(r->inLen + p.produced)}});
        }
        if (use_cache) {
            // Cache the freshly prefilled prompt (idempotent on a
            // full hit: the walk just refreshes LRU stamps). Chunked
            // admissions have nothing prefilled yet — their prompt is
            // inserted when the last slice lands, so another request
            // can never share KV that has not been computed.
            if (!chunk_defer) {
                prefix_->insert(r->tenant, r->promptTokens,
                                pool_->blockTable(r->id), clock_);
                syncPrefixTally();
            }
            if (tr && pm.tokens > 0)
                tr->instant(
                    lane, "prefix.hit", admit_at,
                    {{"req", static_cast<double>(r->id)},
                     {"cached_tokens",
                      static_cast<double>(pm.tokens)}});
        }
    }
    if (pool_) {
        kvPeak_ = std::max(kvPeak_, pool_->utilization());
        publishKvGauges();
    }
    // If KV capacity blocks the head of the queue while nothing runs,
    // time must still advance: to the end of a transient exhaustion
    // window, or past a request too big to ever fit.
    if (active_.empty() && !pending_.empty()) {
        const PendingReq head = pending_.top();
        if (head.readyAt <= clock_ &&
            !canAdmit(*head.req, head.produced, kv_factor)) {
            if (canAdmit(*head.req, head.produced, 1.0)) {
                // Transient KvExhaustion window: wait it out.
                const double t0 = clock_;
                clock_ = inj_.nextWindowEnd(clock_);
                if (tr)
                    tr->complete(lane, "kv_blocked", t0, clock_);
            } else {
                // Request larger than the whole pool: drop it.
                pending_.pop();
                ++tally_.shed;
                if (tr) {
                    tr->instant(
                        lane, "shed_oversized", clock_,
                        {{"req",
                          static_cast<double>(head.req->id)}});
                    tr->asyncEnd(lane, kReqCat, head.req->id,
                                 "shed", clock_);
                }
            }
            return false;
        }
        clock_ = std::max(clock_, head.readyAt);
        return false;
    }
    if (active_.empty())
        return false; // everything remaining was dropped

    return true;
}

void
ContinuousEngine::step()
{
    if (!planStep())
        return; // whole batch preempted (pathological pool)
    priceStep();
    applyStep();
}

// Plan one step. Spec mode fixes draft widths first: KV growth must
// know how much room each decoder needs this cycle. Growth may then
// preempt from the tail (possibly a prefilling sequence), so the batch
// splits into decoders and prefillers only afterwards. Slices are cut
// in admission order: DecodePriority reserves one budget token per
// decoder before any slice is cut, PrefillPriority hands the whole
// budget to the slices (decode still runs, it just stops constraining
// them). A sequence starved of budget for starvationIters consecutive
// steps gets a forced slice — at most one per step (contended in
// admission order), which keeps the step's prefill tokens under
// budget + chunkTokens while still bounding every sequence's wait no
// matter how busy decode keeps the step.
bool
ContinuousEngine::planStep()
{
    StepPlan &p = plan_;
    p.mixed = chunked_ &&
              std::any_of(active_.begin(), active_.end(),
                          [](const ActiveSeq &a) {
                              return a.prefillDone < a.prefillTarget;
                          });
    if (spec_) {
        for (ActiveSeq &a : active_) {
            if (a.prefillDone < a.prefillTarget)
                continue;
            const unsigned remaining = a.req->outLen - a.produced;
            a.draftK =
                std::min(cfg_.specDecode.draftTokens, remaining - 1);
        }
    }
    if (pool_ && cfg_.kvMode == KvMode::Paged) {
        growPaged();
        kvPeak_ = std::max(kvPeak_, pool_->utilization());
        if (active_.empty())
            return false;
    }

    // Sums in locals: stores to the plan's fields could alias the
    // sequence fields the loop reads, forcing reloads per sequence.
    unsigned ndecode = 0;
    double pos_sum = 0.0;
    double k_sum = 0.0;
    for (const ActiveSeq &a : active_) {
        if (a.prefillDone < a.prefillTarget)
            continue;
        ++ndecode;
        pos_sum += a.req->inLen + a.produced;
        k_sum += a.draftK;
    }
    p.ndecode = ndecode;
    p.avgPos = ndecode ? pos_sum / ndecode : 0.0;
    p.meanK = ndecode ? k_sum / ndecode : 0.0;

    p.slices.clear();
    if (p.ndecode == active_.size())
        return true;
    const ChunkedPrefillPolicy &cp = cfg_.chunkedPrefill;
    // The default budget always fits one full slice beside a full
    // decode batch, so no legal configuration can deadlock.
    const unsigned budget = cp.stepTokenBudget
                                ? cp.stepTokenBudget
                                : cp.chunkTokens + cfg_.maxBatch;
    unsigned rem = cp.mode == ChunkMode::DecodePriority
                       ? (budget > p.ndecode ? budget - p.ndecode : 0)
                       : budget;
    bool forced_used = false;
    for (std::size_t i = 0; i < active_.size(); ++i) {
        ActiveSeq &a = active_[i];
        if (a.prefillDone >= a.prefillTarget)
            continue;
        const unsigned remaining = a.prefillTarget - a.prefillDone;
        unsigned take =
            std::min(std::min(cp.chunkTokens, remaining), rem);
        bool forced = false;
        if (take == 0) {
            if (a.stallIters < cp.starvationIters)
                ++a.stallIters;
            if (a.stallIters < cp.starvationIters || forced_used)
                continue;
            take = std::min(cp.chunkTokens, remaining);
            forced = forced_used = true;
        }
        a.stallIters = 0;
        rem -= std::min(take, rem);
        p.slices.push_back({i, take, forced});
    }
    return true;
}

// Price the planned step as one fused launch, each phase laid out
// sequentially on the trace timeline. The decoders go first: a plain
// decode step, or a speculative cycle — the draft model's k
// sequential steps at draftCostRatio of the target's price, then one
// fused verify that streams the weights and pays the per-step TEE tax
// (MEE/EPC traffic, enclave transitions, launch encryption) once for
// up to k+1 tokens. The slices follow in plan order. The first phase
// streams the weights; every slice after it rides that stream and
// pays only its marginal working set (its attention FLOPs, its
// activations, the KV it writes, the prefix KV it re-reads) plus its
// own per-op fixed costs.
void
ContinuousEngine::priceStep()
{
    const StepPlan &p = plan_;
    obs::Tracer *tr = simTracer(cfg_);
    const std::uint32_t lane = cfg_.traceLane;
    const double n = p.ndecode;
    const double slow = inj_.enabled() ? inj_.slowdown(clock_) : 1.0;
    double t = clock_;
    if (p.ndecode && spec_) {
        const double draft_sec =
            p.meanK > 0.0 ? cfg_.specDecode.draftCostRatio * p.meanK *
                                step_->decodeStep(n, p.avgPos) * slow
                          : 0.0;
        const double verify_sec =
            step_->verifyStep(n, p.meanK, p.avgPos) * slow;
        const double verify_t0 = t + draft_sec;
        t = p.mixed ? verify_t0 + verify_sec
                    : t + (draft_sec + verify_sec);
        if (tr) {
            if (draft_sec > 0.0)
                tr->complete(lane, "decode.draft", clock_, verify_t0,
                             {{"batch", n}, {"draft_k", p.meanK}});
            tr->complete(lane, "decode.verify", verify_t0, t,
                         {{"batch", n},
                          {"draft_k", p.meanK},
                          {"avg_pos", p.avgPos}});
        }
    } else if (p.ndecode) {
        t += step_->decodeStep(n, p.avgPos) * slow;
        if (tr)
            tr->complete(lane, "decode", clock_, t,
                         {{"batch", n}, {"avg_pos", p.avgPos}});
    }
    bool shared = p.ndecode > 0;
    for (const Slice &s : p.slices) {
        const ActiveSeq &a = active_[s.idx];
        const double sec =
            step_->prefillChunk(a.prefillDone, s.tokens, shared) *
            slow;
        shared = true;
        if (tr)
            tr->complete(
                lane, "prefill.chunk", t, t + sec,
                {{"req", static_cast<double>(a.req->id)},
                 {"done", static_cast<double>(a.prefillDone)},
                 {"tokens", static_cast<double>(s.tokens)}});
        t += sec;
    }
    clock_ = t;
}

// Apply the priced step. Each decoder emits its accepted draft prefix
// plus one token (just the one token outside spec mode): the bonus
// token when every draft survived, the rejection-resampled correction
// otherwise. Rejected draft KV rolls back out of the paged pool so
// shared blocks and pins stay consistent. Pool trims and releases wait
// until the walk is done, so a landing sequence's prefix insert sees
// the pool exactly as the step left it.
void
ContinuousEngine::applyStep()
{
    const StepPlan &p = plan_;
    const ResiliencePolicy &rp = cfg_.resilience;
    obs::Tracer *tr = simTracer(cfg_);
    const std::uint32_t lane = cfg_.traceLane;

    if (p.ndecode) {
        ++tally_.decodeSteps;
        if (spec_)
            ++tally_.specVerifySteps;
        if (!p.slices.empty())
            ++tally_.mixedSteps;
    }
    maxActive_ = std::max(maxActive_, active_.size());
    kvUtilSum_ += pool_ ? pool_->utilization() : 0.0;
    ++steps_;

    // Loop invariants in locals: each ITL sample stored through the
    // vector could alias a member double, forcing reloads per token.
    const double now = clock_;
    const double timeout = rp.requestTimeout;
    const bool spec = spec_;
    const bool trim = spec && pool_ && cfg_.kvMode == KvMode::Paged;
    std::uint64_t emitted = 0;
    std::uint64_t step_prefill_tokens = 0;
    std::size_t next_slice = 0; // slices are in index order
    kvOps_.clear();
    std::size_t i = 0;
    for (auto it = active_.begin(); it != active_.end(); ++i) {
        ActiveSeq &a = *it;
        Request *r = a.req;
        const bool decoding = a.prefillDone >= a.prefillTarget;
        if (next_slice < p.slices.size() &&
            p.slices[next_slice].idx == i) {
            const Slice &s = p.slices[next_slice++];
            a.prefillDone += s.tokens;
            step_prefill_tokens += s.tokens;
            tally_.prefillTokensComputed += s.tokens;
            ++tally_.chunkSlices;
            tally_.chunkPrefillTokens += s.tokens;
            if (s.forced)
                ++tally_.starvationKicks;
            // The final slice landed: the sequence decodes from the
            // next step, its first token completes with this one, and
            // only now is its prompt KV fully computed and worth
            // caching.
            if (a.prefillDone >= a.prefillTarget) {
                if (r->firstToken < 0.0) {
                    r->firstToken = now;
                    a.lastEmit = now;
                }
                ++tally_.prefills;
                if (prefix_ && !r->promptTokens.empty()) {
                    prefix_->insert(r->tenant, r->promptTokens,
                                    pool_->blockTable(r->id), now);
                    syncPrefixTally();
                }
            }
        }
        // Deadline before emission, prefilling sequences included: a
        // token completing past the deadline is never delivered, so
        // it enters neither itlSamples nor the occupancy sum, and the
        // victim's earlier emissions come back out of the sum — only
        // completed requests bill tokens, and occupancySum ==
        // outputTokens holds in any restart-free run.
        if (timeout > 0.0 && now - r->arrival > timeout) {
            ++tally_.timedOut;
            occupancySum_ -= static_cast<double>(a.produced);
            if (pool_)
                kvOps_.push_back({r->id, 0});
            if (tr) {
                tr->instant(lane, "timeout_decoding", now,
                            {{"req", static_cast<double>(r->id)}});
                tr->asyncEnd(lane, kReqCat, r->id, "timeout", now);
            }
            it = active_.erase(it);
            continue;
        }
        if (decoding) {
            unsigned emit = 1;
            if (spec) {
                // Longest accepted draft prefix: position produced+j
                // is a pure function of (seed, id, j), replayable
                // anywhere.
                unsigned acc = 0;
                while (acc < a.draftK &&
                       specAccept(cfg_.specDecode, r->id,
                                  a.produced + acc))
                    ++acc;
                emit = acc + 1;
                tally_.specDraftTokens += a.draftK;
                tally_.specAccepted += acc;
                // accepted + rejected + bonus counts every emitted
                // token exactly once.
                if (acc == a.draftK)
                    ++tally_.specBonus;
                else
                    ++tally_.specRejected;
            }
            // Inter-token gap, measured client-side from the previous
            // emission (wherever it happened — before a preemption,
            // even before a restart). A cycle's tokens reach the
            // client together; the gap is spread across them so ITL
            // samples keep their per-token meaning (x / 1 == x, so a
            // single token's sample is the gap itself).
            tally_.itlSamples.push((now - a.lastEmit) / emit, emit);
            a.lastEmit = now;
            a.produced += emit;
            emitted += emit;
            if (a.produced >= r->outLen) {
                r->finish = now;
                if (pool_)
                    kvOps_.push_back({r->id, 0});
                if (tr)
                    tr->asyncEnd(lane, kReqCat, r->id, "complete",
                                 now);
                it = active_.erase(it);
                continue;
            }
            // Roll rejected draft KV back (a no-op when every draft
            // survived; reserved mode holds the full reservation).
            if (trim)
                kvOps_.push_back({r->id, r->inLen + a.produced});
        }
        ++it;
    }
    tally_.maxStepPrefillTokens =
        std::max(tally_.maxStepPrefillTokens, step_prefill_tokens);
    for (const KvOp &op : kvOps_) {
        if (op.keep)
            pool_->trimTokens(op.id, op.keep);
        else
            pool_->release(op.id);
    }

    occupancySum_ += static_cast<double>(emitted);
    tally_.emittedTokens += emitted;
    if (pool_) {
        publishKvGauges();
        if (tr)
            tr->counterValue(lane, "kv_util", clock_,
                             pool_->utilization());
    }
}

ServeMetrics
finalizeRequests(const std::vector<const Request *> &reqs,
                 double makespan, double occupancy_sum,
                 std::size_t steps, const ServeCounters &counters,
                 std::span<const RunLengthSamples *const> itl,
                 double ttft_slo, double tpot_slo)
{
    ServeMetrics m;
    static_cast<ServeCounters &>(m) = counters;
    m.makespan = makespan;
    std::vector<double> ttft, tpot;
    std::uint64_t tokens = 0;
    std::size_t slo_ok = 0;
    for (const Request *r : reqs) {
        if (r->finish < 0.0)
            continue;
        ++m.completed;
        tokens += r->outLen;
        const double first = r->firstToken - r->arrival;
        const double per_tok =
            r->outLen > 1
                ? (r->finish - r->firstToken) / (r->outLen - 1)
                : 0.0;
        ttft.push_back(first);
        if (r->outLen > 1)
            tpot.push_back(per_tok);
        if (first <= ttft_slo &&
            (r->outLen <= 1 || per_tok <= tpot_slo))
            ++slo_ok;
    }
    const bool dropped_any =
        counters.shed || counters.timedOut || counters.failed;
    if (!reqs.empty() && m.completed == 0 && !dropped_any)
        cllm_panic("serving simulation completed no requests");
    m.tokensPerSecond = makespan > 0.0 ? tokens / makespan : 0.0;
    m.ttft = summarize(ttft, 0.0);
    if (!tpot.empty())
        m.tpot = summarize(tpot, 0.0);
    m.sloAttainment =
        m.completed ? static_cast<double>(slo_ok) /
                          static_cast<double>(m.completed)
                    : 0.0;
    m.meanBatchOccupancy =
        steps ? occupancy_sum / static_cast<double>(steps) : 0.0;

    m.submitted = reqs.size();
    m.outputTokens = tokens;
    m.availability = m.submitted
                         ? static_cast<double>(m.completed) /
                               static_cast<double>(m.submitted)
                         : 0.0;
    m.itl = summarize(itl);
    return m;
}

ServeMetrics
ContinuousEngine::metrics() const
{
    ServeMetrics m =
        finalizeRequests(submitted_, clock_, occupancySum_, steps_,
                         tally_, cfg_.ttftSlo, cfg_.tpotSlo);
    m.kvUtilizationPeak = kvPeak_;
    m.kvUtilizationMean = kvUtilizationMean();
    m.peakBatchOccupancy = static_cast<double>(maxActive_);
    m.faultTimeline = timeline();
    return m;
}

} // namespace cllm::serve
