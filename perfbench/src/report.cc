#include "report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    if (!std::isfinite(value)) {
        check("finite:" + name, false, "non-finite value");
        value = 0.0;
    }
    metrics_[name] = Metric{value, unit};
}

void
Report::check(const std::string &name, bool ok,
              const std::string &detail)
{
    ++checks_;
    if (ok)
        return;
    ++failedChecks_;
    notes_.push_back("# CHECK FAILED " + name +
                     (detail.empty() ? "" : ": " + detail));
}

void
Report::requests(const std::string &phase, std::uint64_t sent,
                 std::uint64_t failed)
{
    attempted_ += sent;
    failed_ += failed;
    notes_.push_back("# requests " + phase +
                     " sent=" + std::to_string(sent) +
                     " succeeded=" + std::to_string(sent - failed) +
                     " failed=" + std::to_string(failed));
}

void
Report::note(const std::string &line)
{
    notes_.push_back("# " + line);
}

void
Report::print(std::ostream &os) const
{
    for (const std::string &n : notes_)
        os << n << "\n";
    os << "# checks passed " << (checks_ - failedChecks_) << "/"
       << checks_ << "\n";
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    char num[64];
    for (const auto &[name, m] : metrics_) {
        std::snprintf(num, sizeof num, "%.17g", m.value);
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << num << ", \"unit\": \"" << m.unit
           << "\"}";
        first = false;
    }
    os << "}}" << std::endl;
}

int
Spans::open(const char *name, std::int64_t request)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.t0 = nowNs();
    spans_.push_back(s);
    const int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
}

void
Spans::close(int idx)
{
    spans_[static_cast<std::size_t>(idx)].t1 = nowNs();
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

std::vector<double>
Spans::durations(const char *name) const
{
    std::vector<double> d;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            d.push_back(static_cast<double>(s.t1 - s.t0) * 1e-9);
    return d;
}

bool
Spans::writeChrome(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().t0;
    f << "{\"traceEvents\": [\n";
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"span\": %zu, \"parent\": %d, "
                      "\"request\": %lld}}",
                      i ? ",\n" : "", s.name,
                      static_cast<double>(s.t0 - base) * 1e-3,
                      static_cast<double>(s.t1 - s.t0) * 1e-3, i,
                      s.parent, static_cast<long long>(s.request));
        f << buf;
    }
    f << "\n], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(f);
}

} // namespace perfbench
