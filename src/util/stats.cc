#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace cllm {

void
OnlineStats::add(double x, std::uint64_t n)
{
    if (n == 0)
        return;
    if (n_ == 0) {
        // The first step sets mean = x exactly, whatever the weight:
        // (x * n) / n can round away from x, and m2 with it below 0.
        min_ = max_ = mean_ = x;
        n_ = n;
        return;
    }
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    n_ += n;
    const double w = static_cast<double>(n);
    const double delta = x - mean_;
    mean_ += delta * w / static_cast<double>(n_);
    m2_ += delta * (x - mean_) * w;
}

void
OnlineStats::merge(const OnlineStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ += other.n_;
}

double
OnlineStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

namespace {

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

bool
byValue(const Run &a, const Run &b)
{
    return a.value < b.value;
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
 * Weighted quickselect over runs [first, last) whose smallest sample
 * has sorted index `base`: returns the run holding the sample at
 * sorted index `i`, and reorders the range so that no run before it
 * has a larger value and none after it a smaller one — nth_element's
 * postcondition, weighted by run counts. `base` becomes the sorted
 * index of the returned run's first sample, so a query for a higher
 * index can resume past it. Runs equal to the pivot (or unordered
 * against it) form one group, so every round makes progress.
 */
Run *
selectRun(Run *first, Run *last, std::uint64_t &base, std::uint64_t i)
{
    for (;;) {
        const double pivot = first[(last - first) / 2].value;
        Run *const eq = std::partition(
            first, last, [pivot](const Run &r) { return r.value < pivot; });
        Run *const gt = std::partition(
            eq, last, [pivot](const Run &r) { return !(pivot < r.value); });
        const std::uint64_t below = base + sampleCount(first, eq);
        const std::uint64_t equal = sampleCount(eq, gt);
        if (i < below) {
            last = eq;
        } else if (i < below + equal) {
            // Step to the equal run that holds i itself, so the
            // caller's next rank up is past it or in it.
            base = below;
            Run *hit = eq;
            for (; i >= base + hit->count; ++hit)
                base += hit->count;
            return hit;
        } else {
            base = below + equal;
            first = gt;
        }
    }
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    return percentiles(std::move(samples), {p})[0];
}

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

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

std::vector<double>
zScoreFilter(const std::vector<double> &samples, double z_max,
             std::size_t *removed)
{
    OnlineStats st;
    for (double x : samples)
        st.add(x);
    const double sd = st.stddev();
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
    s.stddev = st.stddev();
    s.min = st.min();
    s.max = st.max();
    const std::vector<double> pct =
        percentiles(std::move(kept), {50.0, 95.0, 99.0});
    s.p50 = pct[0];
    s.p95 = pct[1];
    s.p99 = pct[2];
    return s;
}

void
RunLengthSamples::append(const RunLengthSamples &other)
{
    // No reserve(size + other.size()) here: an exact-size reserve per
    // call defeats geometric growth, and a fleet appends one node at a
    // time, so pooling would copy the pool once per node.
    if (&other == this)
        return append(RunLengthSamples(other));
    for (const Run &r : other.runs_)
        push(r.value, r.count);
}

SampleSummary
summarize(const RunLengthSamples &samples)
{
    SampleSummary s;
    if (samples.empty())
        return s;
    OnlineStats st;
    for (const Run &r : samples.runs())
        st.add(r.value, r.count);
    s.count = st.count();
    s.mean = st.mean();
    s.stddev = st.stddev();
    s.min = st.min();
    s.max = st.max();
    if (s.count == 1) {
        s.p50 = s.p95 = s.p99 = s.min;
        return s;
    }
    // The percentile walk of percentiles(), over weighted runs: each
    // rank is selected over the suffix past the previous one, and the
    // interpolation partner one rank up, when it lies in a later run,
    // is the smallest value left in that suffix.
    std::vector<Run> runs = samples.runs();
    Run *const end = runs.data() + runs.size();
    Run *cur = nullptr;
    std::uint64_t base = 0; // sorted index of cur's first sample
    double *const out[] = {&s.p50, &s.p95, &s.p99};
    const double ps[] = {50.0, 95.0, 99.0};
    for (int k = 0; k < 3; ++k) {
        const Type7Rank r(ps[k], s.count);
        if (!cur || r.lo >= base + cur->count) {
            Run *const from = cur ? cur + 1 : runs.data();
            if (cur)
                base += cur->count;
            cur = selectRun(from, end, base, r.lo);
        }
        const double v_hi =
            r.hi >= base + cur->count
                ? std::min_element(cur + 1, end, byValue)->value
                : cur->value;
        *out[k] = r.interpolate(cur->value, v_hi);
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
