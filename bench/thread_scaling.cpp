/**
 * @file
 * Thread-scaling microbench for the cllm::par hot paths: blocked
 * GEMM, batched attention (TinyLlama decode step), AES-CTR bulk
 * encryption, and the dense-retrieval scan. For each kernel the bench
 * resizes the pool through 1/2/4/8 threads (capped by the host),
 * times a fixed workload (best of several repetitions), checks that
 * the parallel result is bit-identical to the single-threaded run,
 * and emits a JSON speedup curve on stdout for CI to record.
 *
 * Usage: thread_scaling [max_threads]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "crypto/ctr.hh"
#include "llm/kernels.hh"
#include "llm/runtime.hh"
#include "par/pool.hh"
#include "rag/dense.hh"
#include "util/config.hh"
#include "util/json.hh"
#include "util/rng.hh"

using namespace cllm;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

llm::Tensor
randomTensor(std::size_t r, std::size_t c, std::uint64_t seed)
{
    llm::Tensor t(r, c);
    Rng rng(seed);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    return t;
}

/** Order-sensitive checksum over a float buffer: any bitwise
 *  difference (value or position) changes it. */
std::uint64_t
checksum(const float *p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, &p[i], sizeof(bits));
        h ^= bits;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
checksumBytes(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

struct KernelResult
{
    std::vector<double> seconds;  //!< per thread count, best of reps
    std::vector<double> speedup;  //!< seconds[0] / seconds[i]
    bool deterministic = true;    //!< checksums equal across counts
};

/**
 * Time `work()` (which must leave its output reachable for
 * `digest()`) at each thread count; `reps` repetitions, best time
 * kept.
 */
template <typename Work, typename Digest>
KernelResult
measure(const std::vector<unsigned> &threads, int reps, Work &&work,
        Digest &&digest)
{
    KernelResult r;
    std::uint64_t base_digest = 0;
    for (std::size_t ti = 0; ti < threads.size(); ++ti) {
        par::setThreadCount(threads[ti]);
        work(); // warm-up (pages, pool spin-up)
        double best = 1e30;
        for (int rep = 0; rep < reps; ++rep) {
            const double t0 = now();
            work();
            best = std::min(best, now() - t0);
        }
        const std::uint64_t d = digest();
        if (ti == 0)
            base_digest = d;
        else if (d != base_digest)
            r.deterministic = false;
        r.seconds.push_back(best);
        r.speedup.push_back(r.seconds[0] / best);
    }
    return r;
}

void
emitKernel(JsonWriter &j, const std::string &name,
           const KernelResult &r)
{
    j.key(name).beginObject();
    j.key("seconds").beginArray();
    for (double s : r.seconds)
        j.value(s);
    j.endArray();
    j.key("speedup").beginArray();
    for (double s : r.speedup)
        j.value(s);
    j.endArray();
    j.field("deterministic", r.deterministic);
    j.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned max_threads = 8;
    if (argc > 1)
        max_threads = parseNumber<unsigned>("max_threads", argv[1], 1,
                                            1024);
    std::vector<unsigned> threads;
    for (unsigned t = 1; t <= max_threads; t *= 2)
        threads.push_back(t);

    // GEMM: 320^3, ~65 MFLOP per call.
    const llm::Tensor ga = randomTensor(320, 320, 1);
    const llm::Tensor gb = randomTensor(320, 320, 2);
    llm::Tensor gc(320, 320);
    const auto gemm_r = measure(
        threads, 5, [&] { llm::gemm(ga, gb, gc); },
        [&] { return checksum(gc.data(), gc.size()); });

    // Attention: batched TinyLlama decode step, batch 8, after a
    // 64-token prefill per sequence (context makes attention the
    // dominant term).
    llm::ModelConfig cfg;
    cfg.layers = 2;
    cfg.hidden = 256;
    cfg.heads = 16;
    cfg.kvHeads = 16;
    cfg.ffn = 512;
    cfg.vocab = 258;
    const llm::TinyLlama model(cfg, hw::Dtype::Fp32, 7);
    constexpr unsigned kBatch = 8;
    std::vector<llm::KvCache> caches(kBatch, model.makeCache());
    std::vector<llm::KvCache *> ptrs;
    for (auto &c : caches)
        ptrs.push_back(&c);
    {
        par::setThreadCount(1);
        std::vector<llm::TokenId> warm(kBatch, 1);
        for (int i = 0; i < 64; ++i)
            model.forwardBatch(warm, ptrs);
    }
    const std::size_t ctx_len = caches[0].length();
    std::vector<std::vector<float>> attn_logits;
    const auto attn_r = measure(
        threads, 5,
        [&] {
            // Rebuild cache length by truncating is not possible;
            // instead decode one step against the fixed prefill by
            // copying the caches each call. The copy is identical
            // work at every thread count, so speedups stay honest.
            std::vector<llm::KvCache> local = caches;
            std::vector<llm::KvCache *> lp;
            for (auto &c : local)
                lp.push_back(&c);
            std::vector<llm::TokenId> toks(kBatch, 2);
            attn_logits = model.forwardBatch(toks, lp);
        },
        [&] {
            std::uint64_t h = 0;
            for (const auto &l : attn_logits)
                h ^= checksum(l.data(), l.size());
            return h;
        });

    // AES-CTR: 8 MiB in-place transform. XOR twice returns the
    // buffer to its original contents, keeping reps comparable.
    crypto::AesKey key{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const crypto::AesCtr ctr(key);
    std::vector<std::uint8_t> buf(8u << 20);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i);
    const auto ctr_r = measure(
        threads, 3,
        [&] {
            ctr.transform(0x746565ULL, 1, buf);
            ctr.transform(0x746565ULL, 1, buf);
        },
        [&] { return checksumBytes(buf.data(), buf.size()); });

    // Dense retrieval: top-16 scan over 20k vectors, dim 256.
    constexpr unsigned kDim = 256;
    rag::DenseIndex index(kDim);
    {
        Rng rng(11);
        std::vector<float> v(kDim);
        for (unsigned i = 0; i < 20000; ++i) {
            double norm = 0.0;
            for (auto &x : v) {
                x = static_cast<float>(rng.gaussian(0.0, 1.0));
                norm += static_cast<double>(x) * x;
            }
            const float inv =
                static_cast<float>(1.0 / std::sqrt(norm));
            for (auto &x : v)
                x *= inv;
            index.add(i, v);
        }
    }
    std::vector<float> query(kDim, 0.0f);
    query[0] = 1.0f;
    std::vector<rag::SearchHit> hits;
    const auto rag_r = measure(
        threads, 5, [&] { hits = index.search(query, 16); },
        [&] {
            std::uint64_t h = 1469598103934665603ULL;
            for (const auto &hit : hits) {
                h ^= hit.id;
                h *= 1099511628211ULL;
                std::uint64_t bits;
                std::memcpy(&bits, &hit.score, sizeof(bits));
                h ^= bits;
                h *= 1099511628211ULL;
            }
            return h;
        });

    par::setThreadCount(0); // restore the default pool

    JsonWriter j(std::cout);
    j.beginObject();
    j.key("bench").value("thread_scaling");
    j.key("attention_context").value(
        static_cast<std::int64_t>(ctx_len));
    j.key("threads").beginArray();
    for (unsigned t : threads)
        j.value(t);
    j.endArray();
    j.key("kernels").beginObject();
    emitKernel(j, "gemm", gemm_r);
    emitKernel(j, "attention", attn_r);
    emitKernel(j, "ctr", ctr_r);
    emitKernel(j, "retrieval", rag_r);
    j.endObject();
    j.endObject();
    std::cout << "\n";

    const bool all_deterministic =
        gemm_r.deterministic && attn_r.deterministic &&
        ctr_r.deterministic && rag_r.deterministic;
    if (!all_deterministic) {
        std::cerr << "thread_scaling: results varied across thread "
                     "counts — determinism contract broken\n";
        return 1;
    }
    return 0;
}
