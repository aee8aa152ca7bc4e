#include "obs/trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace cllm::obs {

namespace {

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

constexpr std::size_t kRingCapacity = 8192;

} // namespace

TraceMode
parseTraceMode(const char *s)
{
    if (!s || !*s)
        return TraceMode::Off;
    if (!std::strcmp(s, "sim") || !std::strcmp(s, "1"))
        return TraceMode::Sim;
    if (!std::strcmp(s, "all") || !std::strcmp(s, "wall") ||
        !std::strcmp(s, "2"))
        return TraceMode::All;
    return TraceMode::Off;
}

/** Per-thread circular buffer of wall spans; written only by its
 *  owning thread, drained under the registration mutex. */
struct Tracer::WallRing
{
    std::uint32_t tid = 0;
    std::uint64_t seq = 0;     //!< spans ever recorded here
    std::vector<WallEvent> buf;

    explicit WallRing(std::uint32_t id) : tid(id)
    {
        buf.reserve(kRingCapacity);
    }
};

Tracer::Tracer(TraceMode mode) : mode_(mode), epochNs_(steadyNs()) {}

Tracer::~Tracer() = default;

Tracer &
Tracer::global()
{
    static Tracer t(parseTraceMode(std::getenv("CLLM_TRACE")));
    return t;
}

void
Tracer::laneName(std::uint32_t lane, const std::string &name)
{
    if (!simEnabled())
        return;
    laneNames_[lane] = name;
}

void
Tracer::complete(std::uint32_t lane, std::string name, double t0,
                 double t1,
                 std::vector<std::pair<std::string, double>> args)
{
    if (!simEnabled())
        return;
    SimEvent e;
    e.ph = SimEvent::Ph::Complete;
    e.lane = lane;
    e.name = std::move(name);
    e.t0 = t0;
    e.t1 = t1;
    e.args = std::move(args);
    sim_.push_back(std::move(e));
}

void
Tracer::instant(
    std::uint32_t lane, std::string name, double t,
    std::vector<std::pair<std::string, double>> args,
    std::vector<std::pair<std::string, std::string>> sargs)
{
    if (!simEnabled())
        return;
    SimEvent e;
    e.ph = SimEvent::Ph::Instant;
    e.lane = lane;
    e.name = std::move(name);
    e.t0 = t;
    e.args = std::move(args);
    e.sargs = std::move(sargs);
    sim_.push_back(std::move(e));
}

void
Tracer::asyncBegin(std::uint32_t lane, std::string cat,
                   std::uint64_t id, std::string name, double t)
{
    if (!simEnabled())
        return;
    SimEvent e;
    e.ph = SimEvent::Ph::AsyncBegin;
    e.lane = lane;
    e.cat = std::move(cat);
    e.id = id;
    e.name = std::move(name);
    e.t0 = t;
    sim_.push_back(std::move(e));
}

void
Tracer::asyncInstant(std::uint32_t lane, std::string cat,
                     std::uint64_t id, std::string name, double t)
{
    if (!simEnabled())
        return;
    SimEvent e;
    e.ph = SimEvent::Ph::AsyncInstant;
    e.lane = lane;
    e.cat = std::move(cat);
    e.id = id;
    e.name = std::move(name);
    e.t0 = t;
    sim_.push_back(std::move(e));
}

void
Tracer::asyncEnd(std::uint32_t lane, std::string cat,
                 std::uint64_t id, std::string name, double t)
{
    if (!simEnabled())
        return;
    SimEvent e;
    e.ph = SimEvent::Ph::AsyncEnd;
    e.lane = lane;
    e.cat = std::move(cat);
    e.id = id;
    e.name = std::move(name);
    e.t0 = t;
    sim_.push_back(std::move(e));
}

void
Tracer::counterValue(std::uint32_t lane, std::string name, double t,
                     double value)
{
    if (!simEnabled())
        return;
    SimEvent e;
    e.ph = SimEvent::Ph::Counter;
    e.lane = lane;
    e.name = std::move(name);
    e.t0 = t;
    e.value = value;
    sim_.push_back(std::move(e));
}

Tracer::WallRing &
Tracer::myRing()
{
    thread_local std::map<const Tracer *, WallRing *> tl_rings;
    WallRing *&slot = tl_rings[this];
    if (!slot) {
        std::lock_guard<std::mutex> lock(wallMu_);
        rings_.push_back(std::make_unique<WallRing>(
            static_cast<std::uint32_t>(rings_.size())));
        slot = rings_.back().get();
    }
    return *slot;
}

void
Tracer::wallSpan(const char *name, std::uint64_t t0_ns,
                 std::uint64_t t1_ns)
{
    if (!wallEnabled())
        return;
    WallRing &r = myRing();
    WallEvent e;
    e.name = name;
    e.t0Ns = t0_ns;
    e.t1Ns = t1_ns;
    e.tid = r.tid;
    e.seq = r.seq++;
    if (r.buf.size() < kRingCapacity)
        r.buf.push_back(e);
    else
        r.buf[e.seq % kRingCapacity] = e; // overwrite oldest
}

std::uint64_t
Tracer::nowNs() const
{
    return steadyNs() - epochNs_;
}

std::vector<WallEvent>
Tracer::collectWall() const
{
    std::vector<WallEvent> out;
    std::lock_guard<std::mutex> lock(wallMu_);
    for (const auto &r : rings_)
        out.insert(out.end(), r->buf.begin(), r->buf.end());
    std::sort(out.begin(), out.end(),
              [](const WallEvent &a, const WallEvent &b) {
                  if (a.t0Ns != b.t0Ns)
                      return a.t0Ns < b.t0Ns;
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.seq < b.seq;
              });
    return out;
}

std::uint64_t
Tracer::wallDropped() const
{
    std::lock_guard<std::mutex> lock(wallMu_);
    std::uint64_t dropped = 0;
    for (const auto &r : rings_)
        if (r->seq > r->buf.size())
            dropped += r->seq - r->buf.size();
    return dropped;
}

} // namespace cllm::obs
