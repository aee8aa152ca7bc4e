#include "llm/runtime.hh"

#include <algorithm>
#include <cstring>
#include <cmath>

#include "par/pool.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cllm::llm {

// ---------------------------------------------------------------- KvCache

KvCache::KvCache(unsigned layers, unsigned kv_dim)
    : kvDim_(kv_dim), keys_(layers), values_(layers)
{
}

void
KvCache::append(unsigned layer, const std::vector<float> &k,
                const std::vector<float> &v)
{
    if (layer >= keys_.size())
        cllm_panic("KvCache::append: layer ", layer, " out of range");
    if (k.size() != kvDim_ || v.size() != kvDim_)
        cllm_panic("KvCache::append: wrong KV width");
    keys_[layer].push_back(k);
    values_[layer].push_back(v);
}

std::size_t
KvCache::length() const
{
    return keys_.empty() ? 0 : keys_[0].size();
}

const std::vector<float> &
KvCache::key(unsigned layer, std::size_t pos) const
{
    return keys_.at(layer).at(pos);
}

const std::vector<float> &
KvCache::value(unsigned layer, std::size_t pos) const
{
    return values_.at(layer).at(pos);
}

// --------------------------------------------------------------- TinyLlama

namespace {

/** Fill a tensor with scaled Gaussian init. */
void
initTensor(Tensor &t, Rng &rng, double scale)
{
    float *p = t.data();
    for (std::size_t i = 0; i < t.size(); ++i)
        p[i] = static_cast<float>(rng.gaussian(0.0, scale));
}

} // namespace

TinyLlama::TinyLlama(const ModelConfig &cfg, hw::Dtype mode,
                     std::uint64_t seed)
    : cfg_(cfg), mode_(mode)
{
    if (cfg_.hidden % cfg_.heads != 0)
        cllm_fatal("hidden must divide heads");
    if (cfg_.heads % cfg_.kvHeads != 0)
        cllm_fatal("heads must be a multiple of kvHeads");

    Rng rng(seed);
    const unsigned d = cfg_.hidden;
    const unsigned dkv = cfg_.kvDim();
    const unsigned f = cfg_.ffn;
    const double scale = 0.6 / std::sqrt(static_cast<double>(d));

    embedding_ = Tensor(cfg_.vocab, d);
    initTensor(embedding_, rng, scale);
    lmHead_ = Tensor(cfg_.vocab, d);
    initTensor(lmHead_, rng, scale);
    finalNorm_.assign(d, 1.0f);

    layers_.resize(cfg_.layers);
    for (auto &l : layers_) {
        l.wq = Tensor(d, d);
        l.wk = Tensor(dkv, d);
        l.wv = Tensor(dkv, d);
        l.wo = Tensor(d, d);
        l.wGate = Tensor(f, d);
        l.wUp = Tensor(f, d);
        l.wDown = Tensor(d, f);
        initTensor(l.wq, rng, scale);
        initTensor(l.wk, rng, scale);
        initTensor(l.wv, rng, scale);
        initTensor(l.wo, rng, scale);
        initTensor(l.wGate, rng, scale);
        initTensor(l.wUp, rng, scale);
        initTensor(l.wDown, rng, scale);
        l.inputNorm.assign(d, 1.0f);
        l.postNorm.assign(d, 1.0f);
    }

    applyModeConversions();
}

void
TinyLlama::applyModeConversions()
{
    if (mode_ == hw::Dtype::Bf16) {
        quantizeBf16(embedding_);
        quantizeBf16(lmHead_);
        for (auto &l : layers_) {
            quantizeBf16(l.wq);
            quantizeBf16(l.wk);
            quantizeBf16(l.wv);
            quantizeBf16(l.wo);
            quantizeBf16(l.wGate);
            quantizeBf16(l.wUp);
            quantizeBf16(l.wDown);
        }
    } else if (mode_ == hw::Dtype::Int8) {
        qLmHead_ = QuantizedTensor::quantize(lmHead_);
        for (auto &l : layers_) {
            l.qwq = QuantizedTensor::quantize(l.wq);
            l.qwk = QuantizedTensor::quantize(l.wk);
            l.qwv = QuantizedTensor::quantize(l.wv);
            l.qwo = QuantizedTensor::quantize(l.wo);
            l.qwGate = QuantizedTensor::quantize(l.wGate);
            l.qwUp = QuantizedTensor::quantize(l.wUp);
            l.qwDown = QuantizedTensor::quantize(l.wDown);
        }
    }
}


namespace {

/** Append a u32 little-endian. */
void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Read a u32 little-endian at offset; false when out of bounds. */
bool
getU32(const std::vector<std::uint8_t> &in, std::size_t &off,
       std::uint32_t &v)
{
    if (off + 4 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(in[off + i]) << (8 * i);
    off += 4;
    return true;
}

void
putTensor(std::vector<std::uint8_t> &out, const Tensor &t)
{
    const auto *bytes =
        reinterpret_cast<const std::uint8_t *>(t.data());
    out.insert(out.end(), bytes, bytes + t.size() * sizeof(float));
}

bool
getTensor(const std::vector<std::uint8_t> &in, std::size_t &off,
          Tensor &t)
{
    const std::size_t n = t.size() * sizeof(float);
    if (off + n > in.size())
        return false;
    std::memcpy(t.data(), in.data() + off, n);
    off += n;
    return true;
}

void
putVec(std::vector<std::uint8_t> &out, const std::vector<float> &v)
{
    const auto *bytes =
        reinterpret_cast<const std::uint8_t *>(v.data());
    out.insert(out.end(), bytes, bytes + v.size() * sizeof(float));
}

bool
getVec(const std::vector<std::uint8_t> &in, std::size_t &off,
       std::vector<float> &v)
{
    const std::size_t n = v.size() * sizeof(float);
    if (off + n > in.size())
        return false;
    std::memcpy(v.data(), in.data() + off, n);
    off += n;
    return true;
}

constexpr std::uint32_t kWeightsMagic = 0x434c4d31; // "CLM1"

} // namespace

std::vector<std::uint8_t>
TinyLlama::saveWeights() const
{
    std::vector<std::uint8_t> out;
    putU32(out, kWeightsMagic);
    putU32(out, cfg_.layers);
    putU32(out, cfg_.hidden);
    putU32(out, cfg_.heads);
    putU32(out, cfg_.kvHeads);
    putU32(out, cfg_.ffn);
    putU32(out, cfg_.vocab);
    putTensor(out, embedding_);
    putTensor(out, lmHead_);
    putVec(out, finalNorm_);
    for (const auto &l : layers_) {
        putTensor(out, l.wq);
        putTensor(out, l.wk);
        putTensor(out, l.wv);
        putTensor(out, l.wo);
        putTensor(out, l.wGate);
        putTensor(out, l.wUp);
        putTensor(out, l.wDown);
        putVec(out, l.inputNorm);
        putVec(out, l.postNorm);
    }
    return out;
}

bool
TinyLlama::loadWeights(const std::vector<std::uint8_t> &blob)
{
    std::size_t off = 0;
    std::uint32_t magic, layers, hidden, heads, kv_heads, ffn, vocab;
    if (!getU32(blob, off, magic) || magic != kWeightsMagic)
        return false;
    if (!getU32(blob, off, layers) || !getU32(blob, off, hidden) ||
        !getU32(blob, off, heads) || !getU32(blob, off, kv_heads) ||
        !getU32(blob, off, ffn) || !getU32(blob, off, vocab)) {
        return false;
    }
    if (layers != cfg_.layers || hidden != cfg_.hidden ||
        heads != cfg_.heads || kv_heads != cfg_.kvHeads ||
        ffn != cfg_.ffn || vocab != cfg_.vocab) {
        return false;
    }

    // Stage into a copy so a truncated blob leaves *this untouched.
    TinyLlama staged = *this;
    if (!getTensor(blob, off, staged.embedding_) ||
        !getTensor(blob, off, staged.lmHead_) ||
        !getVec(blob, off, staged.finalNorm_)) {
        return false;
    }
    for (auto &l : staged.layers_) {
        if (!getTensor(blob, off, l.wq) || !getTensor(blob, off, l.wk) ||
            !getTensor(blob, off, l.wv) || !getTensor(blob, off, l.wo) ||
            !getTensor(blob, off, l.wGate) ||
            !getTensor(blob, off, l.wUp) ||
            !getTensor(blob, off, l.wDown) ||
            !getVec(blob, off, l.inputNorm) ||
            !getVec(blob, off, l.postNorm)) {
            return false;
        }
    }
    if (off != blob.size())
        return false; // trailing garbage

    staged.applyModeConversions();
    *this = std::move(staged);
    return true;
}

void
TinyLlama::project(const Tensor &w, const QuantizedTensor &q,
                   const float *x, float *y) const
{
    if (mode_ == hw::Dtype::Int8)
        matvecQuantized(q, x, y);
    else
        matvec(w, x, y);
}

void
TinyLlama::roundActs(std::vector<float> &v) const
{
    if (mode_ != hw::Dtype::Bf16)
        return;
    for (auto &x : v)
        x = toBf16(x);
}

KvCache
TinyLlama::makeCache() const
{
    return KvCache(cfg_.layers, cfg_.kvDim());
}

std::vector<float>
TinyLlama::forward(TokenId token, KvCache &cache) const
{
    if (token >= cfg_.vocab)
        cllm_fatal("token ", token, " outside vocab ", cfg_.vocab);

    const unsigned d = cfg_.hidden;
    const unsigned dkv = cfg_.kvDim();
    const unsigned f = cfg_.ffn;
    const unsigned hd = cfg_.headDim();
    const unsigned group = cfg_.heads / cfg_.kvHeads;
    const std::size_t pos = cache.length();

    std::vector<float> x(embedding_.row(token), embedding_.row(token) + d);
    roundActs(x);

    std::vector<float> normed(d), q(d), k(dkv), v(dkv), attn_out(d),
        proj(d), gate(f), up(f), mlp(d);

    for (unsigned li = 0; li < cfg_.layers; ++li) {
        const Layer &l = layers_[li];

        // Attention sub-block.
        rmsnorm(x.data(), l.inputNorm.data(), normed.data(), d);
        project(l.wq, l.qwq, normed.data(), q.data());
        project(l.wk, l.qwk, normed.data(), k.data());
        project(l.wv, l.qwv, normed.data(), v.data());

        for (unsigned h = 0; h < cfg_.heads; ++h)
            applyRope(q.data() + h * hd, hd, pos);
        for (unsigned h = 0; h < cfg_.kvHeads; ++h)
            applyRope(k.data() + h * hd, hd, pos);

        cache.append(li, k, v);
        const std::size_t ctx = cache.length();

        std::fill(attn_out.begin(), attn_out.end(), 0.0f);
        const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
        // Heads are independent: each owns a disjoint slice of
        // attn_out and a private score buffer, so the per-head math
        // is identical at any thread count.
        par::parallelFor(0, cfg_.heads, 1, [&](std::size_t h0,
                                               std::size_t h1) {
            std::vector<float> scores(ctx);
            for (std::size_t h = h0; h < h1; ++h) {
                const unsigned kv_h = static_cast<unsigned>(h) / group;
                const float *qh = q.data() + h * hd;
                for (std::size_t p = 0; p < ctx; ++p) {
                    const float *kh =
                        cache.key(li, p).data() + kv_h * hd;
                    scores[p] = dot(kh, qh, hd) * inv_sqrt;
                }
                softmaxInPlace(scores.data(), ctx);
                float *out_h = attn_out.data() + h * hd;
                for (std::size_t p = 0; p < ctx; ++p) {
                    const float *vh =
                        cache.value(li, p).data() + kv_h * hd;
                    const float w = scores[p];
                    for (unsigned i = 0; i < hd; ++i)
                        out_h[i] += w * vh[i];
                }
            }
        });

        project(l.wo, l.qwo, attn_out.data(), proj.data());
        for (unsigned i = 0; i < d; ++i)
            x[i] += proj[i];
        roundActs(x);

        // MLP sub-block (SwiGLU).
        rmsnorm(x.data(), l.postNorm.data(), normed.data(), d);
        project(l.wGate, l.qwGate, normed.data(), gate.data());
        project(l.wUp, l.qwUp, normed.data(), up.data());
        siluInPlace(gate.data(), f);
        for (unsigned i = 0; i < f; ++i)
            gate[i] *= up[i];
        project(l.wDown, l.qwDown, gate.data(), mlp.data());
        for (unsigned i = 0; i < d; ++i)
            x[i] += mlp[i];
        roundActs(x);
    }

    rmsnorm(x.data(), finalNorm_.data(), normed.data(), d);
    std::vector<float> logits(cfg_.vocab);
    if (mode_ == hw::Dtype::Int8)
        matvecQuantized(qLmHead_, normed.data(), logits.data());
    else
        matvec(lmHead_, normed.data(), logits.data());
    return logits;
}


std::vector<std::vector<float>>
TinyLlama::forwardBatch(const std::vector<TokenId> &tokens,
                        std::vector<KvCache *> &caches) const
{
    const std::size_t bsz = tokens.size();
    if (bsz == 0 || caches.size() != bsz)
        cllm_fatal("forwardBatch: tokens/caches size mismatch");
    for (TokenId t : tokens) {
        if (t >= cfg_.vocab)
            cllm_fatal("token ", t, " outside vocab ", cfg_.vocab);
    }

    const unsigned d = cfg_.hidden;
    const unsigned dkv = cfg_.kvDim();
    const unsigned f = cfg_.ffn;
    const unsigned hd = cfg_.headDim();
    const unsigned group = cfg_.heads / cfg_.kvHeads;

    // Residual stream, one row per sequence.
    Tensor x(bsz, d);
    for (std::size_t b = 0; b < bsz; ++b) {
        const float *row = embedding_.row(tokens[b]);
        for (unsigned i = 0; i < d; ++i)
            x.at(b, i) = mode_ == hw::Dtype::Bf16 ? toBf16(row[i])
                                                  : row[i];
    }

    // Snapshot positions before any layer appends to the caches.
    std::vector<std::size_t> pos(bsz);
    for (std::size_t b = 0; b < bsz; ++b)
        pos[b] = caches[b]->length();

    Tensor normed(bsz, d), q(bsz, d), k(bsz, dkv), v(bsz, dkv);
    Tensor attn_out(bsz, d), proj(bsz, d);
    Tensor gate(bsz, f), up(bsz, f), mlp(bsz, d);

    auto project_batch = [&](const Tensor &w, const QuantizedTensor &qw,
                             const Tensor &in, Tensor &out) {
        if (mode_ == hw::Dtype::Int8) {
            for (std::size_t b = 0; b < bsz; ++b)
                matvecQuantized(qw, in.row(b), out.row(b));
        } else {
            gemmTransB(in, w, out);
        }
    };

    for (unsigned li = 0; li < cfg_.layers; ++li) {
        const Layer &l = layers_[li];

        for (std::size_t b = 0; b < bsz; ++b)
            rmsnorm(x.row(b), l.inputNorm.data(), normed.row(b), d);
        project_batch(l.wq, l.qwq, normed, q);
        project_batch(l.wk, l.qwk, normed, k);
        project_batch(l.wv, l.qwv, normed, v);

        for (std::size_t b = 0; b < bsz; ++b) {
            for (unsigned h = 0; h < cfg_.heads; ++h)
                applyRope(q.row(b) + h * hd, hd, pos[b]);
            for (unsigned h = 0; h < cfg_.kvHeads; ++h)
                applyRope(k.row(b) + h * hd, hd, pos[b]);
            caches[b]->append(
                li, std::vector<float>(k.row(b), k.row(b) + dkv),
                std::vector<float>(v.row(b), v.row(b) + dkv));
        }

        attn_out.fill(0.0f);
        const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
        // Sequences are independent (disjoint caches and attn_out
        // rows), so the batch axis is the parallel unit; per-sequence
        // head order stays serial and bit-identical.
        par::parallelFor(0, bsz, 1, [&](std::size_t b0,
                                        std::size_t b1) {
            for (std::size_t b = b0; b < b1; ++b) {
                const std::size_t ctx = caches[b]->length();
                std::vector<float> scores(ctx);
                for (unsigned h = 0; h < cfg_.heads; ++h) {
                    const unsigned kv_h = h / group;
                    const float *qh = q.row(b) + h * hd;
                    for (std::size_t p = 0; p < ctx; ++p) {
                        const float *kh =
                            caches[b]->key(li, p).data() + kv_h * hd;
                        scores[p] = dot(kh, qh, hd) * inv_sqrt;
                    }
                    softmaxInPlace(scores.data(), ctx);
                    float *out_h = attn_out.row(b) + h * hd;
                    for (std::size_t p = 0; p < ctx; ++p) {
                        const float *vh =
                            caches[b]->value(li, p).data() + kv_h * hd;
                        const float w = scores[p];
                        for (unsigned i = 0; i < hd; ++i)
                            out_h[i] += w * vh[i];
                    }
                }
            }
        });

        project_batch(l.wo, l.qwo, attn_out, proj);
        for (std::size_t b = 0; b < bsz; ++b) {
            float *xr = x.row(b);
            const float *pr = proj.row(b);
            for (unsigned i = 0; i < d; ++i) {
                xr[i] += pr[i];
                if (mode_ == hw::Dtype::Bf16)
                    xr[i] = toBf16(xr[i]);
            }
        }

        for (std::size_t b = 0; b < bsz; ++b)
            rmsnorm(x.row(b), l.postNorm.data(), normed.row(b), d);
        project_batch(l.wGate, l.qwGate, normed, gate);
        project_batch(l.wUp, l.qwUp, normed, up);
        for (std::size_t b = 0; b < bsz; ++b) {
            siluInPlace(gate.row(b), f);
            float *gr = gate.row(b);
            const float *ur = up.row(b);
            for (unsigned i = 0; i < f; ++i)
                gr[i] *= ur[i];
        }
        project_batch(l.wDown, l.qwDown, gate, mlp);
        for (std::size_t b = 0; b < bsz; ++b) {
            float *xr = x.row(b);
            const float *mr = mlp.row(b);
            for (unsigned i = 0; i < d; ++i) {
                xr[i] += mr[i];
                if (mode_ == hw::Dtype::Bf16)
                    xr[i] = toBf16(xr[i]);
            }
        }
    }

    std::vector<std::vector<float>> logits(bsz);
    Tensor final_norm(bsz, d), head(bsz, cfg_.vocab);
    for (std::size_t b = 0; b < bsz; ++b)
        rmsnorm(x.row(b), finalNorm_.data(), final_norm.row(b), d);
    project_batch(lmHead_, qLmHead_, final_norm, head);
    for (std::size_t b = 0; b < bsz; ++b)
        logits[b].assign(head.row(b), head.row(b) + cfg_.vocab);
    return logits;
}

std::vector<TokenId>
TinyLlama::generateGreedy(const std::vector<TokenId> &prompt,
                          unsigned steps) const
{
    if (prompt.empty())
        cllm_fatal("generateGreedy: empty prompt");
    KvCache cache = makeCache();
    std::vector<float> logits;
    for (TokenId t : prompt)
        logits = forward(t, cache);

    std::vector<TokenId> out;
    for (unsigned s = 0; s < steps; ++s) {
        const auto best =
            std::max_element(logits.begin(), logits.end());
        const TokenId next = static_cast<TokenId>(
            std::distance(logits.begin(), best));
        out.push_back(next);
        if (next == ByteTokenizer::kEos && cfg_.vocab >= 258)
            break;
        if (s + 1 < steps)
            logits = forward(next, cache);
    }
    return out;
}

} // namespace cllm::llm
