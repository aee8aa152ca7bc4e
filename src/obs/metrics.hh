/**
 * @file
 * Metrics registry: named counters and gauges, cheap enough for hot
 * paths and deterministic enough for the golden tests.
 *
 * Determinism contract (matching `cllm::par`): every hot-path
 * aggregate is an *integer*. Counter increments are unsigned 64-bit
 * adds, which commute exactly — so the merged totals a `snapshot()`
 * reports are bit-identical whether the work ran on 1 thread or 8, in
 * any interleaving. Floating-point accumulation across threads would
 * not have that property, which is why gauges — the one
 * double-valued instrument — are last-write-wins state meant for
 * single-threaded simulation loops.
 *
 * Hot-path cost: counters are striped across cache-line-aligned
 * per-thread shards (relaxed atomic adds, no sharing between
 * threads). Callers cache the instrument reference once
 * (function-local `static auto &`) so the name lookup happens a
 * single time.
 */

#ifndef CLLM_OBS_METRICS_HH
#define CLLM_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace cllm {
class JsonWriter;
}

namespace cllm::obs {

/**
 * Monotonic event/byte counter. Increments land in the calling
 * thread's shard; `total()` folds the shards. Safe to add from any
 * thread concurrently; totals are exact and thread-count-invariant.
 */
class Counter
{
  public:
    static constexpr unsigned kShards = 64;

    void
    add(std::uint64_t n)
    {
        shards_[shardIndex()].v.fetch_add(n,
                                          std::memory_order_relaxed);
    }

    void inc() { add(1); }

    /** Exact sum over every shard. */
    std::uint64_t total() const;

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> v{0};
    };

    /** Stable per-thread stripe; threads beyond kShards share. */
    static unsigned shardIndex();

    Shard shards_[kShards];
};

/**
 * Last-write-wins double value (a level, not a rate): KV occupancy,
 * live-node count, current slowdown factor. Meant for the
 * single-threaded simulation loops; concurrent writers would race on
 * "last", which no deterministic sim does.
 */
class Gauge
{
  public:
    void
    set(double v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    double
    get() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Process-wide name → instrument table. Instruments are created on
 * first use and never destroyed (stable addresses — cache the
 * reference), `snapshot()` walks them in name order so the emitted
 * JSON is byte-stable.
 */
class Registry
{
  public:
    static Registry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /**
     * Emit one JSON object: `{"counters": {...}, "gauges": {...}}`,
     * every section sorted by name.
     */
    void snapshot(JsonWriter &json) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

} // namespace cllm::obs

#endif // CLLM_OBS_METRICS_HH
