#include "mem/tlb.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace cllm::mem {

TlbModel::TlbModel(TlbConfig cfg) : cfg_(cfg)
{
    if (cfg_.stlbEntries == 0)
        cllm_fatal("TlbModel: zero STLB entries");
}

std::uint64_t
TlbModel::reach(PageSize page) const
{
    return cfg_.stlbEntries * pageBytes(page);
}

double
TlbModel::walkLatencyNs(TranslationMode mode) const
{
    switch (mode) {
      case TranslationMode::Native:
        return cfg_.walkNs;
      case TranslationMode::Nested:
        return cfg_.walkNs * cfg_.nestedFactor;
      case TranslationMode::NestedTdx:
        return cfg_.walkNs * cfg_.nestedFactor * cfg_.tdxExtraFactor;
    }
    cllm_panic("unknown TranslationMode");
}

double
TlbModel::missProbability(PageSize page,
                          const AccessPattern &pattern) const
{
    if (pattern.workingSetBytes == 0)
        return 0.0;
    const double r = static_cast<double>(reach(page));
    const double ws = static_cast<double>(pattern.workingSetBytes);
    return std::max(0.0, 1.0 - r / ws);
}

double
TlbModel::extraSecondsPerByte(PageSize page, TranslationMode mode,
                              const AccessPattern &pattern) const
{
    // Attribute translation-stall pricing: total evaluations, and the
    // share priced on a nested (virtualized / TDX) walk path.
    static obs::Counter &evals =
        obs::Registry::global().counter("mem.tlb.stall_evals");
    static obs::Counter &nested_evals =
        obs::Registry::global().counter("mem.tlb.nested_evals");
    evals.inc();
    if (mode != TranslationMode::Native)
        nested_evals.inc();

    const double walk_s = walkLatencyNs(mode) * 1e-9;
    const double stream_frac = 1.0 - pattern.randomFraction;
    // Streaming: one walk amortized over a page of traffic, mostly
    // hidden under the stream by prefetchers and OoO execution.
    const double stream_cost = stream_frac * walk_s *
                               cfg_.streamVisibility /
                               static_cast<double>(pageBytes(page));
    // Scattered: one potential walk per access burst, less hideable.
    const double miss_p = missProbability(page, pattern);
    const double random_cost = pattern.randomFraction * miss_p * walk_s *
                               cfg_.randomVisibility /
                               cfg_.randomBlockBytes;
    return stream_cost + random_cost;
}

double
TlbModel::bandwidthFactor(double raw_bytes_per_s, PageSize page,
                          TranslationMode mode,
                          const AccessPattern &pattern) const
{
    if (raw_bytes_per_s <= 0.0)
        cllm_panic("TlbModel::bandwidthFactor: non-positive bandwidth");
    const double base_per_byte = 1.0 / raw_bytes_per_s;
    const double extra = extraSecondsPerByte(page, mode, pattern);
    return base_per_byte / (base_per_byte + extra);
}

} // namespace cllm::mem
