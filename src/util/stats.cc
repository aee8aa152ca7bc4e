#include "util/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "util/logging.hh"

namespace cllm {

void
OnlineStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = mean_ = x;
        n_ = 1;
        return;
    }
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
}

namespace {

/**
 * Sample stddev of `v` about its computed `mean`: the corrected
 * two-pass formula sqrt((Σd² − (Σd)²/n) / (n − 1)) with d = x − mean,
 * where the (Σd)²/n term cancels the mean's own rounding error. The
 * run-length summary uses the same formula.
 */
double
stddevAbout(const std::vector<double> &v, double mean)
{
    if (v.size() < 2)
        return 0.0;
    double dev = 0.0, dev2 = 0.0;
    for (double x : v) {
        const double d = x - mean;
        dev += d;
        dev2 += d * d;
    }
    const double nd = static_cast<double>(v.size());
    return std::sqrt(std::max(0.0, dev2 - dev * dev / nd) / (nd - 1.0));
}

/**
 * Type-7 ("linear") percentile position in n >= 2 sorted samples: the
 * result interpolates the order statistics at `lo` and `hi` by
 * `frac`. Shared by both percentile paths so they agree to the bit.
 */
struct Type7Rank
{
    std::size_t lo;
    std::size_t hi;
    double frac;

    Type7Rank(double p, std::size_t n)
    {
        const double rank = p / 100.0 * static_cast<double>(n - 1);
        lo = static_cast<std::size_t>(rank);
        hi = std::min(lo + 1, n - 1);
        frac = rank - static_cast<double>(lo);
    }

    double interpolate(double v_lo, double v_hi) const
    {
        return v_lo * (1.0 - frac) + v_hi * frac;
    }
};

using Run = RunLengthSamples::Run;

/** Buckets of summarize()'s rank histogram. */
constexpr unsigned kRankBuckets = 4096;

/**
 * An order-preserving image of a double in the unsigned integers:
 * x < y implies key(x) < key(y), and x == y implies key(x) == key(y)
 * (x + 0.0 turns -0.0 into +0.0, so the minimum's key is never above
 * a sample's). Buckets cut from it are monotone in value for any
 * finite inputs, with no arithmetic that can overflow or lose the
 * span of subnormals.
 */
std::uint64_t
orderKey(double x)
{
    const auto bits = std::bit_cast<std::uint64_t>(x + 0.0);
    return bits >> 63 ? ~bits : bits | (std::uint64_t{1} << 63);
}

std::uint64_t
sampleCount(const Run *first, const Run *last)
{
    std::uint64_t n = 0;
    for (; first != last; ++first)
        n += first->count;
    return n;
}

/**
 * Weighted quickselect: the value of the sample at sorted index `i`
 * among the runs [first, last), which it reorders. Runs equal to the
 * pivot (or unordered against it) form one group, so every round
 * makes progress.
 */
double
selectValue(Run *first, Run *last, std::uint64_t i)
{
    for (;;) {
        const double pivot = first[(last - first) / 2].value;
        Run *const eq = std::partition(
            first, last, [pivot](const Run &r) { return r.value < pivot; });
        Run *const gt = std::partition(
            eq, last, [pivot](const Run &r) { return !(pivot < r.value); });
        const std::uint64_t below = sampleCount(first, eq);
        const std::uint64_t equal = sampleCount(eq, gt);
        if (i < below) {
            last = eq;
        } else if (i < below + equal) {
            return eq->value;
        } else {
            i -= below + equal;
            first = gt;
        }
    }
}

} // namespace

std::vector<double>
percentiles(std::vector<double> samples, const std::vector<double> &ps)
{
    for (double p : ps)
        if (p < 0.0 || p > 100.0)
            cllm_panic("percentile p out of range: ", p);
    std::vector<double> out(ps.size(), 0.0);
    if (samples.empty() || ps.empty())
        return out;
    if (samples.size() == 1) {
        std::fill(out.begin(), out.end(), samples[0]);
        return out;
    }
    // Process requested ranks in ascending order: each nth_element
    // call partitions only the suffix past the previously placed
    // rank, and every element it places is an exact order statistic —
    // the same value a full sort would put there.
    std::vector<std::size_t> order(ps.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&ps](std::size_t a, std::size_t b) {
                  return ps[a] != ps[b] ? ps[a] < ps[b] : a < b;
              });
    const std::size_t n = samples.size();
    std::ptrdiff_t last = -1; // highest index already exact
    for (std::size_t oi : order) {
        const Type7Rank r(ps[oi], n);
        const std::size_t lo = r.lo;
        if (static_cast<std::ptrdiff_t>(lo) > last) {
            std::nth_element(
                samples.begin() + (last + 1),
                samples.begin() + static_cast<std::ptrdiff_t>(lo),
                samples.end());
            last = static_cast<std::ptrdiff_t>(lo);
        }
        // The interpolation partner one rank up is the minimum of
        // the unsorted tail left behind by the partition.
        const double v_hi =
            r.hi > lo ? *std::min_element(
                            samples.begin() +
                                static_cast<std::ptrdiff_t>(lo) + 1,
                            samples.end())
                      : samples[lo];
        out[oi] = r.interpolate(samples[lo], v_hi);
    }
    return out;
}

std::vector<double>
zScoreFilter(const std::vector<double> &samples, double z_max,
             std::size_t *removed)
{
    OnlineStats st;
    for (double x : samples)
        st.add(x);
    const double sd = stddevAbout(samples, st.mean());
    std::vector<double> out;
    out.reserve(samples.size());
    if (sd == 0.0) {
        out = samples;
    } else {
        for (double x : samples) {
            if (std::abs(x - st.mean()) / sd <= z_max)
                out.push_back(x);
        }
    }
    if (removed)
        *removed = samples.size() - out.size();
    return out;
}

SampleSummary
summarize(const std::vector<double> &samples, double z_max)
{
    SampleSummary s;
    if (samples.empty())
        return s;
    std::vector<double> kept;
    if (z_max > 0.0) {
        kept = zScoreFilter(samples, z_max, &s.outliers);
    } else {
        kept = samples;
    }
    if (kept.empty())
        kept = samples;
    OnlineStats st;
    for (double x : kept)
        st.add(x);
    s.count = st.count();
    s.mean = st.mean();
    s.stddev = stddevAbout(kept, s.mean);
    s.min = st.min();
    s.max = st.max();
    const std::vector<double> pct =
        percentiles(std::move(kept), {50.0, 95.0, 99.0});
    s.p50 = pct[0];
    s.p95 = pct[1];
    s.p99 = pct[2];
    return s;
}

SampleSummary
summarize(std::span<const RunLengthSamples *const> parts)
{
    SampleSummary s;
    const RunLengthSamples *head = nullptr;
    for (const RunLengthSamples *p : parts)
        if (!p->empty()) {
            head = p;
            break;
        }
    if (!head)
        return s;

    // Pass 1. `nonfinite` sums x − x, which is 0 unless some x is
    // infinite or NaN (the shifted sum may overflow on finite ones).
    const double x0 = head->runs().front().value;
    double lo = x0, hi = x0, shifted = 0.0, nonfinite = 0.0;
    std::uint64_t n = 0;
    for (const RunLengthSamples *p : parts) {
        for (const Run &r : p->runs()) {
            lo = std::min(lo, r.value);
            hi = std::max(hi, r.value);
            shifted += static_cast<double>(r.count) * (r.value - x0);
            nonfinite += r.value - r.value;
        }
        n += p->size();
    }
    if (nonfinite != 0.0)
        cllm_panic("summarize: non-finite ITL sample");
    const double nd = static_cast<double>(n);
    const double mean = x0 + shifted / nd;

    // Pass 2: deviations from the mean, and the rank histogram.
    const std::uint64_t key_lo = orderKey(lo);
    const int width =
        static_cast<int>(std::bit_width(orderKey(hi) - key_lo));
    const int shift = std::max(
        0, width - static_cast<int>(std::bit_width(kRankBuckets - 1)));
    const auto bucket = [key_lo, shift](double x) {
        return static_cast<unsigned>((orderKey(x) - key_lo) >> shift);
    };
    std::vector<std::uint64_t> weight(kRankBuckets, 0);
    double dev = 0.0, dev2 = 0.0;
    for (const RunLengthSamples *p : parts)
        for (const Run &r : p->runs()) {
            const double w = static_cast<double>(r.count);
            const double d = r.value - mean;
            dev += w * d;
            dev2 += w * d * d;
            weight[bucket(r.value)] += r.count;
        }
    s.count = n;
    s.mean = mean + dev / nd;
    s.stddev = n > 1 ? std::sqrt(std::max(0.0, dev2 - dev * dev / nd) /
                                 (nd - 1.0))
                     : 0.0;
    s.min = lo;
    s.max = hi;

    // Pass 3: the ranks type-7 interpolates (lo and lo + 1 of each
    // percentile) fall in at most six buckets; gather their runs.
    const double ps[] = {50.0, 95.0, 99.0};
    std::uint64_t ranks[6];
    for (int k = 0; k < 3; ++k) {
        const Type7Rank r(ps[k], n);
        ranks[2 * k] = r.lo;
        ranks[2 * k + 1] = r.hi;
    }
    struct Picked
    {
        std::uint64_t base; //!< sorted index of its first sample
        std::vector<Run> runs;
    };
    std::vector<Picked> picked;
    std::vector<std::int8_t> slot(kRankBuckets, -1);
    int rank_slot[6];
    std::partial_sum(weight.begin(), weight.end(), weight.begin());
    for (int k = 0; k < 6; ++k) {
        // weight[b] is now the count of samples in buckets 0..b.
        const auto b = static_cast<unsigned>(
            std::upper_bound(weight.begin(), weight.end(), ranks[k]) -
            weight.begin());
        if (slot[b] < 0) {
            slot[b] = static_cast<std::int8_t>(picked.size());
            picked.push_back({b ? weight[b - 1] : 0, {}});
        }
        rank_slot[k] = slot[b];
    }
    for (const RunLengthSamples *p : parts)
        for (const Run &r : p->runs())
            if (const int k = slot[bucket(r.value)]; k >= 0)
                picked[static_cast<std::size_t>(k)].runs.push_back(r);

    double *const out[] = {&s.p50, &s.p95, &s.p99};
    for (int k = 0; k < 3; ++k) {
        double v[2];
        for (int j = 0; j < 2; ++j) {
            Picked &b = picked[static_cast<std::size_t>(rank_slot[2 * k + j])];
            v[j] = selectValue(b.runs.data(), b.runs.data() + b.runs.size(),
                               ranks[2 * k + j] - b.base);
        }
        *out[k] = Type7Rank(ps[k], n).interpolate(v[0], v[1]);
    }
    return s;
}

double
overhead(double value, double baseline)
{
    if (baseline == 0.0)
        cllm_panic("overhead with zero baseline");
    return value / baseline - 1.0;
}

double
overheadPct(double value, double baseline)
{
    return 100.0 * overhead(value, baseline);
}

} // namespace cllm
