/**
 * @file
 * Span tracer with two clock domains.
 *
 * *Sim-time* events live on the discrete-event timeline of a serving
 * or fleet simulation: request lifecycles, decode steps, fault
 * impacts, scale decisions. They are recorded in emission order by
 * the (single-threaded) simulation loop, so a sim trace is a pure
 * function of the simulation inputs — bit-identical across runs and
 * across `CLLM_THREADS` settings, and safe to pin as a golden file.
 *
 * *Wall-clock* events time real execution (pool chunks, kernels,
 * crypto) on `std::chrono::steady_clock`. They land in fixed-size
 * per-thread ring buffers — one relaxed index bump and two struct
 * stores per span, no locks, no allocation on the hot path — and are
 * only gathered at export time. Wall events are inherently
 * non-deterministic, which is why they are a separate domain (and a
 * separate `pid` lane in the Chrome export) that the determinism
 * tests never look at.
 *
 * A null `Tracer*` or `TraceMode::Off` makes every recording call a
 * cheap no-op; the simulation's arithmetic never depends on the
 * tracer, so tracing off reproduces untraced output byte-for-byte.
 *
 * Env contract (read by `Tracer::global()`):
 *   CLLM_TRACE      off|0 (default), sim|1, all|wall|2
 *   CLLM_TRACE_OUT  default output path for tools that honor it
 */

#ifndef CLLM_OBS_TRACE_HH
#define CLLM_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cllm::obs {

/** What the tracer records. */
enum class TraceMode
{
    Off, //!< record nothing (the default)
    Sim, //!< sim-time events only (deterministic)
    All, //!< sim-time + wall-clock ring buffers
};

/** Parse a CLLM_TRACE-style string; unknown values mean Off. */
TraceMode parseTraceMode(const char *s);

/** One recorded sim-time event. */
struct SimEvent
{
    enum class Ph
    {
        Complete,     //!< span with [t0, t1]
        Instant,      //!< point event
        AsyncBegin,   //!< start of a cross-lane async track
        AsyncInstant, //!< milestone on an async track
        AsyncEnd,     //!< end of an async track
        Counter,      //!< sampled counter value
    };

    Ph ph = Ph::Instant;
    std::uint32_t lane = 0; //!< exported as tid
    std::string name;
    std::string cat;        //!< async category ("" otherwise)
    std::uint64_t id = 0;   //!< async track id
    double t0 = 0.0;        //!< seconds (sim clock)
    double t1 = 0.0;        //!< Complete only
    double value = 0.0;     //!< Counter only
    std::vector<std::pair<std::string, double>> args;
    std::vector<std::pair<std::string, std::string>> sargs;
};

/** One wall-clock span drained from a thread's ring. */
struct WallEvent
{
    const char *name = nullptr; //!< static-storage label
    std::uint64_t t0Ns = 0;     //!< steady-clock ns since epoch
    std::uint64_t t1Ns = 0;
    std::uint32_t tid = 0;      //!< ring registration order
    std::uint64_t seq = 0;      //!< per-ring emission counter
};

/**
 * The tracer. Sim-domain recording is meant for single-threaded
 * simulation loops (one tracer per sim); wall-domain recording is
 * thread-safe and lock-free per span. Everything is inert while the
 * mode says so.
 */
class Tracer
{
  public:
    explicit Tracer(TraceMode mode = TraceMode::Off);
    ~Tracer(); // out of line: WallRing is incomplete here

    /**
     * Process-wide tracer, mode initialized from CLLM_TRACE. The
     * pool's chunk spans and other library-internal wall spans attach
     * here; sims attach whatever tracer their config points at.
     */
    static Tracer &global();

    TraceMode
    mode() const
    {
        return mode_.load(std::memory_order_relaxed);
    }

    void
    setMode(TraceMode m)
    {
        mode_.store(m, std::memory_order_relaxed);
    }

    bool simEnabled() const { return mode() != TraceMode::Off; }
    bool wallEnabled() const { return mode() == TraceMode::All; }

    /** Human name for a lane (exported as thread_name metadata). */
    void laneName(std::uint32_t lane, const std::string &name);

    // ---- sim-time domain (seconds on the simulation clock) --------
    void complete(
        std::uint32_t lane, std::string name, double t0, double t1,
        std::vector<std::pair<std::string, double>> args = {});
    void instant(
        std::uint32_t lane, std::string name, double t,
        std::vector<std::pair<std::string, double>> args = {},
        std::vector<std::pair<std::string, std::string>> sargs = {});
    void asyncBegin(std::uint32_t lane, std::string cat,
                    std::uint64_t id, std::string name, double t);
    void asyncInstant(std::uint32_t lane, std::string cat,
                      std::uint64_t id, std::string name, double t);
    void asyncEnd(std::uint32_t lane, std::string cat,
                  std::uint64_t id, std::string name, double t);
    void counterValue(std::uint32_t lane, std::string name, double t,
                      double value);

    const std::vector<SimEvent> &simEvents() const { return sim_; }
    const std::map<std::uint32_t, std::string> &lanes() const
    {
        return laneNames_;
    }

    // ---- wall-clock domain ----------------------------------------
    /** Record one wall span on the calling thread's ring. */
    void wallSpan(const char *name, std::uint64_t t0_ns,
                  std::uint64_t t1_ns);

    /** Steady-clock ns since this tracer's epoch. */
    std::uint64_t nowNs() const;

    /**
     * Drain every ring into one list sorted by (t0, tid, seq).
     * Call after parallel work has quiesced.
     */
    std::vector<WallEvent> collectWall() const;

    /** Wall spans overwritten because a ring filled up. */
    std::uint64_t wallDropped() const;

  private:
    struct WallRing;

    WallRing &myRing();

    std::atomic<TraceMode> mode_{TraceMode::Off};
    std::vector<SimEvent> sim_;
    std::map<std::uint32_t, std::string> laneNames_;
    std::uint64_t epochNs_ = 0;

    mutable std::mutex wallMu_;
    std::vector<std::unique_ptr<WallRing>> rings_;
};

/**
 * RAII wall-clock span on the global tracer. When wall recording is
 * off, construction is a single relaxed atomic load and nothing else
 * — cheap enough for per-chunk instrumentation of the pool.
 */
class WallSpan
{
  public:
    explicit WallSpan(const char *name)
    {
        Tracer &t = Tracer::global();
        if (t.wallEnabled()) {
            tracer_ = &t;
            name_ = name;
            t0_ = t.nowNs();
        }
    }

    ~WallSpan()
    {
        if (tracer_)
            tracer_->wallSpan(name_, t0_, tracer_->nowNs());
    }

    WallSpan(const WallSpan &) = delete;
    WallSpan &operator=(const WallSpan &) = delete;

  private:
    Tracer *tracer_ = nullptr;
    const char *name_ = nullptr;
    std::uint64_t t0_ = 0;
};

} // namespace cllm::obs

#endif // CLLM_OBS_TRACE_HH
