/**
 * @file
 * Timing decorator over `serve::StepModel`: forwards all five pricing
 * virtuals to the wrapped model and counts and times each call by
 * kind. Step pricing runs millions of times per simulated trace, so
 * calls are summed here rather than recorded as one span each.
 */

#ifndef PERFBENCH_TIMED_STEP_HH
#define PERFBENCH_TIMED_STEP_HH

#include <array>
#include <cstdint>
#include <memory>

#include "report.hh"
#include "serve/serving.hh"

namespace perfbench {

/** Pricing calls and their summed wall time, by StepModel virtual. */
struct PriceStats
{
    enum Kind
    {
        Prefill,
        PrefillFrom,
        PrefillChunk,
        Decode,
        Verify,
        kKinds
    };
    static constexpr const char *kNames[kKinds] = {
        "prefill", "prefill_from", "prefill_chunk", "decode", "verify"};

    std::array<std::uint64_t, kKinds> calls{};
    std::uint64_t ns = 0;

    std::uint64_t
    totalCalls() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t c : calls)
            n += c;
        return n;
    }
};

class TimedStepModel : public cllm::serve::StepModel
{
  public:
    TimedStepModel(std::unique_ptr<cllm::serve::StepModel> inner,
                   PriceStats &stats)
        : inner_(std::move(inner)), stats_(&stats)
    {
    }

    double
    prefill(unsigned in_len) const override
    {
        return timed(PriceStats::Prefill,
                     [&] { return inner_->prefill(in_len); });
    }

    double
    decodeStep(double nseq, double avg_pos) const override
    {
        return timed(PriceStats::Decode,
                     [&] { return inner_->decodeStep(nseq, avg_pos); });
    }

    double
    prefillFrom(unsigned cached, unsigned total) const override
    {
        return timed(PriceStats::PrefillFrom, [&] {
            return inner_->prefillFrom(cached, total);
        });
    }

    double
    prefillChunk(unsigned done, unsigned chunk,
                 bool shared) const override
    {
        return timed(PriceStats::PrefillChunk, [&] {
            return inner_->prefillChunk(done, chunk, shared);
        });
    }

    double
    verifyStep(double nseq, double k, double avg_pos) const override
    {
        return timed(PriceStats::Verify, [&] {
            return inner_->verifyStep(nseq, k, avg_pos);
        });
    }

  private:
    template <typename Fn>
    double
    timed(PriceStats::Kind kind, Fn &&fn) const
    {
        const std::uint64_t t0 = nowNs();
        const double s = fn();
        stats_->ns += nowNs() - t0;
        ++stats_->calls[kind];
        return s;
    }

    std::unique_ptr<cllm::serve::StepModel> inner_;
    PriceStats *stats_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_STEP_HH
