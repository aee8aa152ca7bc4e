/**
 * @file
 * Statistics helpers used throughout the benchmark harness: streaming
 * moments, percentiles, and the Z-score outlier filter the paper applies
 * to per-token latency samples (Section III-D, Z > 3).
 */

#ifndef CLLM_UTIL_STATS_HH
#define CLLM_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cllm {

/**
 * Streaming mean (Welford's running update), minimum and maximum;
 * O(1) memory. The spread is not kept here: a running sum of squared
 * deviations loses most of its digits when the samples sit a few ulps
 * apart, so summarize() and zScoreFilter() take the stddev in a
 * second pass over the samples.
 */
class OnlineStats
{
  public:
    void add(double x);

    /** Number of samples seen so far. */
    std::size_t count() const { return n_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Smallest sample seen; 0 when empty. */
    double min() const { return n_ ? min_ : 0.0; }

    /** Largest sample seen; 0 when empty. */
    double max() const { return n_ ? max_ : 0.0; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Percentiles of a sample set via linear interpolation between closest
 * ranks (the "linear" / type-7 method), one value per entry of `ps`
 * in the caller's order (which need not be sorted). Each p is in
 * [0, 100]; out-of-range p panics. Edge cases are well-defined: an
 * empty sample set yields 0 (matching OnlineStats and SampleSummary),
 * a single sample is every percentile of itself, and p = 0 / p = 100
 * are exactly min / max. The samples are partially ordered with
 * nth_element per distinct rank (ascending, over an ever-shrinking
 * suffix) instead of fully sorted: O(n · |ps|) worst case.
 */
std::vector<double> percentiles(std::vector<double> samples,
                                const std::vector<double> &ps);

/**
 * Drop samples whose Z-score exceeds `z_max`, as the paper does for
 * TEE memory-encryption outliers (Z > 3 excluded ~0.64% of samples).
 *
 * @param samples input samples (unmodified)
 * @param z_max threshold on |x - mean| / stddev
 * @param removed optional out-param: number of dropped samples
 * @return surviving samples in original order
 */
std::vector<double> zScoreFilter(const std::vector<double> &samples,
                                 double z_max,
                                 std::size_t *removed = nullptr);

/** Summary of a sample set after optional outlier filtering. */
struct SampleSummary
{
    std::size_t count = 0;      //!< samples after filtering
    std::size_t outliers = 0;   //!< samples removed by the Z filter
    double mean = 0.0;
    double stddev = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Build a SampleSummary, filtering at Z > z_max first (0 disables). */
SampleSummary summarize(const std::vector<double> &samples,
                        double z_max = 3.0);

/**
 * A multiset of samples kept as (value, count) runs in arrival order.
 * push() extends the last run when the value repeats, so a stream
 * whose consecutive samples often coincide — every decoder of one
 * engine step shares its inter-token gap — costs one run per change
 * of value instead of one double per sample. Nothing is rounded:
 * expanding the runs gives back the exact sample sequence.
 */
class RunLengthSamples
{
  public:
    struct Run
    {
        double value;
        std::uint64_t count;
    };

    /** Append `n` copies of `x` (n = 0 is a no-op). */
    void
    push(double x, std::uint64_t n = 1)
    {
        if (n == 0)
            return;
        size_ += n;
        if (!runs_.empty() && runs_.back().value == x)
            runs_.back().count += n;
        else
            runs_.push_back({x, n});
    }

    /** Number of samples (not runs). */
    std::size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    const std::vector<Run> &runs() const { return runs_; }

  private:
    std::vector<Run> runs_;
    std::size_t size_ = 0;
};

/**
 * Summarize the union of run-length multisets without expanding or
 * copying them (no Z filter); `parts` order fixes the summation order,
 * so a fixed order gives a deterministic summary. min/max/count/p50/
 * p95/p99 are bit-identical to summarize() of the concatenated
 * expansion with z_max = 0. Three streaming passes over the runs:
 *
 *  1. min, max, the count, and the weighted sum of x − x0, where x0 is
 *     the first sample, so a single-valued input has mean x0 exactly;
 *  2. the weighted squared deviations from that mean (corrected for
 *     the mean's own rounding), and a weight histogram over 4096
 *     buckets monotone in value (an order-preserving integer image of
 *     the double, so no span of values overflows or underflows it);
 *  3. a gather of the runs in the buckets that hold the type-7 ranks
 *     of p50/p95/p99 and their +1 partners, inside which a weighted
 *     quickselect finds each order statistic.
 *
 * Mean and stddev differ from summarize()'s (a per-sample Welford
 * mean, and the same corrected deviation sums around it) only in the
 * last bits. Panics on a non-finite sample.
 */
SampleSummary summarize(std::span<const RunLengthSamples *const> parts);

/** Relative overhead of `value` versus `baseline`, as a fraction. */
double overhead(double value, double baseline);

/** Relative overhead in percent. */
double overheadPct(double value, double baseline);

} // namespace cllm

#endif // CLLM_UTIL_STATS_HH
