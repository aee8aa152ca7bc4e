/**
 * @file
 * Result plumbing shared by the benchmark's workloads: a metric table
 * printed as the final JSON line, named correctness checks, a wall
 * clock, an in-memory span recorder for the traced runs, and the
 * percentile rule the benchmark reports by.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds elapsed since `t0_ns`. */
inline double
secondsSince(std::uint64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) * 1e-9;
}

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/** Nearest-rank quantile q in [0, 1] (0 for an empty sample). */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process in MB (getrusage). */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * Everything one run reports: metrics, checks, request counts, and
 * informational lines printed ahead of the result.
 */
class Report
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);

    /** Record a named check; a failed one makes the run incorrect. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");

    /** Count requests sent by one phase and how many failed. */
    void requests(const std::string &phase, std::uint64_t sent,
                  std::uint64_t failed);

    /** An informational `# key value` line. */
    void note(const std::string &line);

    bool correct() const { return failedChecks_ == 0; }

    /** Notes, per-phase request lines, failed checks, then the
     *  single-line JSON result. */
    void print(std::ostream &os) const;

  private:
    std::map<std::string, Metric> metrics_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::size_t checks_ = 0;
    std::size_t failedChecks_ = 0;
};

/**
 * In-memory span store for traced runs. Spans carry a name, start and
 * end, the index of their parent span (-1 at the root) and the request
 * they belong to; they are kept in a vector and written out only when
 * the run ends. With parents recorded, a layer's self time (duration
 * minus its children's) can be read from the written trace.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name = nullptr; //!< static-storage label
        std::uint64_t t0 = 0;
        std::uint64_t t1 = 0;
        int parent = -1;
        std::int64_t request = -1;
    };

    /** Open a span under the innermost open one; returns its index. */
    int open(const char *name, std::int64_t request = -1);
    /** Close span `idx` (must be the innermost open one). */
    void close(int idx);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations in seconds of the spans named `name`. */
    std::vector<double> durations(const char *name) const;

    /** Write Chrome trace-event JSON (one complete event per span). */
    bool writeChrome(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; inert when `spans` is null. */
class SpanGuard
{
  public:
    SpanGuard(Spans *spans, const char *name, std::int64_t request = -1)
        : spans_(spans), idx_(spans ? spans->open(name, request) : -1)
    {
    }
    ~SpanGuard()
    {
        if (spans_)
            spans_->close(idx_);
    }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    Spans *spans_;
    int idx_;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
