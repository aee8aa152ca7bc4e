/**
 * @file
 * The functional half of a workload: one client in a closed loop
 * against a confidential RAG service built from the library's real
 * code paths. Per request the client seals a BEIR-style query on an
 * attested `tee::SecureChannel`; the enclave opens it, runs hybrid
 * retrieval (reranked BM25 fused with SBERT) over a corpus whose
 * bodies sit in a `tee::FsShield`, fetches and verifies the top hits,
 * prefills `llm::TinyLlama` on a fixed-length prompt, then decodes
 * greedily, sealing every token back to the client.
 */

#ifndef PERFBENCH_FUNCTIONAL_HH
#define PERFBENCH_FUNCTIONAL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "report.hh"

namespace perfbench {

/** Request shape of a session. */
struct RagShape
{
    unsigned promptTokens = 64; //!< tokens prefilled per request
    unsigned outputTokens = 64; //!< greedy tokens per request
    std::size_t topK = 2;       //!< retrieved documents fetched
};

/** Client-observed timings of one request. */
struct RagRequest
{
    bool ok = false;
    double ttftS = 0.0;
    std::vector<double> itlS; //!< gaps between opened tokens
};

/** Wall time of each set-up step, in seconds. */
struct RagSetupTimes
{
    double handshake = 0.0;
    double weightsUnseal = 0.0;
    double weightsLoad = 0.0;
    double weightBytes = 0.0;
    double indexBuild = 0.0;
};

class RagSession
{
  public:
    /**
     * Set up the enclave and client: attested handshake, weights
     * saved, sealed into the shield, unsealed and loaded, corpus
     * generated, indexed and sealed. Set-up checks land in `r`.
     */
    RagSession(std::uint64_t seed, const RagShape &shape, bool tiny,
               Report &r);
    ~RagSession();

    RagSession(const RagSession &) = delete;
    RagSession &operator=(const RagSession &) = delete;

    const RagSetupTimes &setupTimes() const;

    /** Serve request number `i`; spans are recorded when non-null. */
    RagRequest serve(std::uint64_t i, Spans *spans);

    /** Re-send an already delivered query; true when it is refused. */
    bool replayRejected();

    /** Forward passes and their FLOPs (from the model config). */
    std::uint64_t prefillForwards() const;
    std::uint64_t decodeForwards() const;
    double forwardFlops() const;

  private:
    struct State;
    std::unique_ptr<State> s_;
};

} // namespace perfbench

#endif // PERFBENCH_FUNCTIONAL_HH
