/**
 * @file
 * Functional ring collectives over simulated ranks, the oracle for the
 * cluster timing model's all-reduce traffic. `llm::GpuClusterPerfModel`
 * prices each tensor-parallel all-reduce with `llm::ringAllReduceFactor`
 * (2*(n-1)/n of the payload per rank); ringAllReduce runs the actual
 * algorithm (reduce-scatter + all-gather over chunked buffers) so the
 * tests can check that the priced factor is what the ring really moves.
 */

#ifndef CLLM_TESTS_COLLECTIVE_REF_HH
#define CLLM_TESTS_COLLECTIVE_REF_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace cllm::testing {

/** Traffic accounting for one collective. */
struct CollectiveStats
{
    std::uint64_t bytesSentPerRank = 0; //!< on-wire bytes each rank sent
    unsigned steps = 0;                 //!< communication rounds
};

/** Bounds [begin, end) of chunk c when len splits into n chunks. */
inline std::pair<std::size_t, std::size_t>
chunkBounds(std::size_t len, unsigned n, unsigned c)
{
    const std::size_t base = len / n;
    const std::size_t extra = len % n;
    const std::size_t begin =
        c * base + std::min<std::size_t>(c, extra);
    const std::size_t size = base + (c < extra ? 1 : 0);
    return {begin, begin + size};
}

/**
 * In-place ring all-reduce (sum) across `ranks[i]` buffers, which
 * must all have the same length. After the call every rank holds the
 * elementwise sum.
 */
inline CollectiveStats
ringAllReduce(std::vector<std::vector<float>> &ranks)
{
    CollectiveStats stats;
    const unsigned n = static_cast<unsigned>(ranks.size());
    if (n == 0)
        cllm_fatal("ringAllReduce: no ranks");
    const std::size_t len = ranks[0].size();
    for (const auto &r : ranks) {
        if (r.size() != len)
            cllm_fatal("ringAllReduce: ragged buffers");
    }
    if (n == 1 || len == 0)
        return stats;

    // Phase 1: reduce-scatter. In step s, rank r sends its running
    // chunk (r - s) mod n to rank (r + 1) mod n, which accumulates.
    // Within a step, each (rank, chunk) cell is written at most once
    // and never read after being written, so sequential processing
    // matches the simultaneous exchange.
    std::uint64_t sent_per_rank = 0;
    for (unsigned s = 0; s + 1 < n; ++s) {
        std::size_t max_chunk = 0;
        for (unsigned r = 0; r < n; ++r) {
            const unsigned dst = (r + 1) % n;
            const unsigned chunk = (r + n - s % n) % n;
            const auto [b, e] = chunkBounds(len, n, chunk);
            for (std::size_t i = b; i < e; ++i)
                ranks[dst][i] += ranks[r][i];
            max_chunk = std::max(max_chunk, e - b);
        }
        sent_per_rank += max_chunk * sizeof(float);
        ++stats.steps;
    }

    // Phase 2: all-gather. After reduce-scatter, rank r holds the
    // complete sum of chunk (r + 1) mod n; circulate the finished
    // chunks around the ring.
    for (unsigned s = 0; s + 1 < n; ++s) {
        std::size_t max_chunk = 0;
        for (unsigned r = 0; r < n; ++r) {
            const unsigned dst = (r + 1) % n;
            const unsigned chunk = (r + 1 + n - s % n) % n;
            const auto [b, e] = chunkBounds(len, n, chunk);
            for (std::size_t i = b; i < e; ++i)
                ranks[dst][i] = ranks[r][i];
            max_chunk = std::max(max_chunk, e - b);
        }
        sent_per_rank += max_chunk * sizeof(float);
        ++stats.steps;
    }
    stats.bytesSentPerRank = sent_per_rank;
    return stats;
}

/**
 * In-place all-gather: rank i contributes its buffer; afterwards
 * every rank holds the concatenation (in rank order). The pipelined
 * ring forwards each piece once per hop over n-1 steps, so a rank
 * sends about the payload minus its own share.
 */
inline CollectiveStats
ringAllGather(std::vector<std::vector<float>> &ranks)
{
    CollectiveStats stats;
    const unsigned n = static_cast<unsigned>(ranks.size());
    if (n == 0)
        cllm_fatal("ringAllGather: no ranks");
    if (n == 1)
        return stats;

    std::vector<float> all;
    std::uint64_t total_bytes = 0;
    for (unsigned r = 0; r < n; ++r) {
        all.insert(all.end(), ranks[r].begin(), ranks[r].end());
        total_bytes += ranks[r].size() * sizeof(float);
    }
    for (unsigned r = 0; r < n; ++r)
        ranks[r] = all;
    stats.steps = n - 1;
    stats.bytesSentPerRank = total_bytes - total_bytes / n;
    return stats;
}

} // namespace cllm::testing

#endif // CLLM_TESTS_COLLECTIVE_REF_HH
