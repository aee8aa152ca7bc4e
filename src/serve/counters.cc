#include "serve/counters.hh"

#include <algorithm>
#include <type_traits>

#include "util/json.hh"

namespace cllm::serve {

// Flags, and only flags, roll up by OR: it is what makes a bool row's
// group gated.
static_assert(std::ranges::all_of(kServeCounters, [](const CounterDef &d) {
    return (d.rollup == Rollup::Any) ==
           std::holds_alternative<bool ServeCounters::*>(d.member);
}));

void
mergeCounters(ServeCounters &into, const ServeCounters &from)
{
    for (const CounterDef &d : kServeCounters) {
        std::visit(
            [&](auto m) {
                if constexpr (std::is_same_v<decltype(m),
                                             bool ServeCounters::*>)
                    into.*m = into.*m || from.*m;
                else if (d.rollup == Rollup::Max)
                    into.*m = std::max(into.*m, from.*m);
                else
                    into.*m += from.*m;
            },
            d.member);
    }
}

bool
groupEnabled(const ServeCounters &c, CounterGroup group)
{
    for (const CounterDef &d : kServeCounters)
        if (d.group == group && d.rollup == Rollup::Any)
            return c.*std::get<bool ServeCounters::*>(d.member);
    return true;
}

namespace {

void
writeItl(JsonWriter &json, const SampleSummary &itl)
{
    json.field("itl_p50_s", itl.p50);
    json.field("itl_p95_s", itl.p95);
    json.field("itl_p99_s", itl.p99);
}

} // namespace

void
writeCounters(JsonWriter &json, const ServeCounters &c,
              const SampleSummary &itl, CounterGroup first,
              CounterGroup last)
{
    for (auto g = first; g <= last;
         g = static_cast<CounterGroup>(static_cast<int>(g) + 1)) {
        if (!groupEnabled(c, g))
            continue;
        // ITL is tracked in every mode; the chunk block carries it,
        // or the spec block when chunking is off.
        if (g == CounterGroup::Chunk)
            writeItl(json, itl);
        for (const CounterDef &d : kServeCounters)
            if (d.group == g && d.json)
                std::visit([&](auto m) { json.field(d.json, c.*m); },
                           d.member);
        if (g == CounterGroup::Spec) {
            json.field("spec_mean_accepted_len", specMeanAcceptedLen(c));
            if (!c.chunkedEnabled)
                writeItl(json, itl);
        }
    }
}

double
specMeanAcceptedLen(const ServeCounters &c)
{
    const std::uint64_t cycles = c.specBonus + c.specRejected;
    return cycles ? static_cast<double>(c.specAccepted) /
                        static_cast<double>(cycles)
                  : 0.0;
}

double
prefixHitRate(const ServeCounters &c)
{
    const std::uint64_t lookups = c.prefixHits + c.prefixMisses;
    return lookups ? static_cast<double>(c.prefixHits) /
                         static_cast<double>(lookups)
                   : 0.0;
}

} // namespace cllm::serve
