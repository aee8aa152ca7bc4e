#include "obs/metrics.hh"

#include "util/json.hh"

namespace cllm::obs {

// ---------------------------------------------------------------- Counter

unsigned
Counter::shardIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned idx =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
}

std::uint64_t
Counter::total() const
{
    std::uint64_t sum = 0;
    for (const Shard &s : shards_)
        sum += s.v.load(std::memory_order_relaxed);
    return sum;
}

// --------------------------------------------------------------- Registry

Registry &
Registry::global()
{
    static Registry r;
    return r;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

void
Registry::snapshot(JsonWriter &json) const
{
    std::lock_guard<std::mutex> lock(mu_);
    json.beginObject();
    json.key("counters").beginObject();
    for (const auto &[name, c] : counters_)
        json.field(name, c->total());
    json.endObject();
    json.key("gauges").beginObject();
    for (const auto &[name, g] : gauges_)
        json.field(name, g->get());
    json.endObject();
    json.endObject();
}

} // namespace cllm::obs
