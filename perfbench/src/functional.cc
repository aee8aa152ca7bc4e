#include "functional.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "crypto/sha256.hh"
#include "llm/runtime.hh"
#include "llm/tokenizer.hh"
#include "rag/rag_pipeline.hh"
#include "tee/fs_shield.hh"
#include "tee/session.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace cllm;

namespace {

constexpr std::uint64_t kSeedPlatform = 1;
constexpr std::uint64_t kSeedServerDh = 2;
constexpr std::uint64_t kSeedClientDh = 3;
constexpr std::uint64_t kSeedWeights = 4;
constexpr std::uint64_t kSeedEnclaveInit = 5;
constexpr std::uint64_t kSeedCorpus = 6;

/** Greedy tokens checked before sealing and after loading. */
constexpr unsigned kSampleSteps = 16;

/** Candidates each retriever contributes to the fusion. */
constexpr std::size_t kFusionDepth = 20;

llm::ModelConfig
tinyConfig()
{
    llm::ModelConfig c;
    c.name = "tiny-llama";
    c.layers = 2;
    c.hidden = 256;
    c.heads = 4;
    c.kvHeads = 4;
    c.ffn = 512;
    c.vocab = llm::ByteTokenizer::kVocabSize;
    return c;
}

llm::TokenId
argmax(const std::vector<float> &logits)
{
    return static_cast<llm::TokenId>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
}

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::vector<std::uint8_t>
bytesOf(llm::TokenId t)
{
    return {static_cast<std::uint8_t>(t), static_cast<std::uint8_t>(t >> 8),
            static_cast<std::uint8_t>(t >> 16),
            static_cast<std::uint8_t>(t >> 24)};
}

std::string
docPath(rag::DocId id)
{
    return "docs/" + std::to_string(id);
}

} // namespace

struct RagSession::State
{
    RagShape shape;
    RagSetupTimes times;
    llm::ModelConfig cfg = tinyConfig();
    llm::ByteTokenizer tok;
    std::unique_ptr<llm::TinyLlama> model;
    rag::BeirDataset dataset;
    std::unique_ptr<rag::RagPipeline> pipeline;
    std::unique_ptr<tee::FsShield> shield;
    std::unique_ptr<tee::SecureChannel> clientTx, serverRx, serverTx,
        clientRx;
    std::optional<tee::SealedMessage> lastQuery;
    std::uint64_t prefillForwards = 0;
    std::uint64_t decodeForwards = 0;
    double flops = 0.0;

    std::vector<float>
    forward(llm::TokenId t, llm::KvCache &cache)
    {
        const double ctx = static_cast<double>(cache.length() + 1);
        flops += 2.0 * static_cast<double>(cfg.matmulParams()) +
                 4.0 * cfg.layers * cfg.hidden * ctx;
        return model->forward(t, cache);
    }

    /** Reciprocal-rank fusion of the two retrievers' rankings. */
    std::vector<rag::DocId>
    hybridRetrieve(const std::string &query) const
    {
        std::map<rag::DocId, double> score;
        for (auto method : {rag::RagMethod::RerankedBm25,
                            rag::RagMethod::Sbert}) {
            const auto hits = pipeline->retrieve(method, query, kFusionDepth);
            for (std::size_t rank = 0; rank < hits.size(); ++rank)
                score[hits[rank].id] += 1.0 / (60.0 + rank + 1.0);
        }
        std::vector<std::pair<double, rag::DocId>> fused;
        for (const auto &[id, s] : score)
            fused.emplace_back(-s, id);
        std::sort(fused.begin(), fused.end());
        std::vector<rag::DocId> top;
        for (std::size_t i = 0; i < fused.size() && i < shape.topK; ++i)
            top.push_back(fused[i].second);
        return top;
    }
};

RagSession::RagSession(std::uint64_t seed, const RagShape &shape,
                       bool tiny, Report &r)
    : s_(std::make_unique<State>())
{
    State &s = *s_;
    s.shape = shape;

    // Platform, enclave measurement and the attested key exchange.
    std::uint64_t t0 = nowNs();
    const crypto::Digest256 hw_key = crypto::sha256(
        "perfbench-platform-" +
        std::to_string(splitSeed(seed, kSeedPlatform)));
    tee::QuotingEnclave platform(hw_key, /*security_version=*/3);
    tee::MeasurementBuilder mb;
    mb.extend("binary", std::string("confidential-rag-runtime"));
    const tee::Measurement enclave = mb.finish();
    tee::DhKeyPair server_keys(splitSeed(seed, kSeedServerDh));
    const tee::ServerHello hello =
        tee::makeServerHello(platform, enclave, server_keys);
    tee::QuoteVerifier verifier(platform.verificationKey(),
                                /*min_security_version=*/2);
    verifier.allow(enclave);
    tee::DhKeyPair client_keys(splitSeed(seed, kSeedClientDh));
    const tee::HandshakeResult hs =
        tee::completeHandshake(verifier, hello, client_keys);
    const tee::SessionKeys server_session = tee::deriveSessionKeys(
        server_keys.sharedSecret(client_keys.publicValue()));
    s.clientTx = std::make_unique<tee::SecureChannel>(hs.keys.clientToServer);
    s.serverRx =
        std::make_unique<tee::SecureChannel>(server_session.clientToServer);
    s.serverTx =
        std::make_unique<tee::SecureChannel>(server_session.serverToClient);
    s.clientRx = std::make_unique<tee::SecureChannel>(hs.keys.serverToClient);
    s.times.handshake = secondsSince(t0);
    r.check("rag.handshake", hs.ok, tee::verifyStatusName(hs.status));

    // Weights: the provider's model is saved, sealed into the shield,
    // then unsealed and loaded into a differently initialised enclave
    // model. The greedy sample must survive the round trip.
    s.shield = std::make_unique<tee::FsShield>(platform.sealingKey(enclave));
    std::vector<std::uint8_t> blob;
    std::vector<llm::TokenId> sample_before;
    const std::vector<llm::TokenId> sample =
        s.tok.encode("confidential inference sample");
    {
        const llm::TinyLlama provider(s.cfg, hw::Dtype::Bf16,
                                      splitSeed(seed, kSeedWeights));
        sample_before = provider.generateGreedy(sample, kSampleSteps);
        blob = provider.saveWeights();
    }
    s.shield->put("models/tiny.bin", blob);
    t0 = nowNs();
    const auto unsealed = s.shield->get("models/tiny.bin");
    s.times.weightsUnseal = secondsSince(t0);
    s.times.weightBytes = static_cast<double>(blob.size());
    r.check("rag.weights_unseal_equal", unsealed && *unsealed == blob);
    s.model = std::make_unique<llm::TinyLlama>(
        s.cfg, hw::Dtype::Bf16, splitSeed(seed, kSeedEnclaveInit));
    t0 = nowNs();
    const bool loaded = unsealed && s.model->loadWeights(*unsealed);
    s.times.weightsLoad = secondsSince(t0);
    r.check("rag.weights_load", loaded);
    r.check("rag.greedy_sample_equal",
            s.model->generateGreedy(sample, kSampleSteps) ==
                sample_before);

    // Corpus, indexes, and the sealed document store.
    rag::BeirConfig bc;
    bc.numDocs = tiny ? 300 : 3000;
    bc.numQueries = tiny ? 20 : 200;
    bc.seed = splitSeed(seed, kSeedCorpus);
    t0 = nowNs();
    s.dataset = rag::generateBeir(bc);
    s.pipeline = std::make_unique<rag::RagPipeline>(s.dataset);
    s.times.indexBuild = secondsSince(t0);
    for (const rag::Document &d : s.dataset.corpus)
        s.shield->put(docPath(d.id), bytesOf(d.body));
}

RagSession::~RagSession() = default;

const RagSetupTimes &
RagSession::setupTimes() const
{
    return s_->times;
}

RagRequest
RagSession::serve(std::uint64_t i, Spans *spans)
{
    State &s = *s_;
    RagRequest out;
    const auto &queries = s.dataset.queries;
    const std::string &query = queries[i % queries.size()].text;
    const std::int64_t rid = static_cast<std::int64_t>(i);

    SpanGuard req(spans, "request", rid);
    const std::uint64_t t0 = nowNs();

    std::optional<std::vector<std::uint8_t>> opened;
    {
        SpanGuard g(spans, "tee.seal", rid);
        s.lastQuery = s.clientTx->seal(bytesOf(query));
    }
    {
        SpanGuard g(spans, "tee.open", rid);
        opened = s.serverRx->open(*s.lastQuery);
    }
    if (!opened)
        return out;
    const std::string text(opened->begin(), opened->end());

    std::vector<rag::DocId> top;
    {
        SpanGuard g(spans, "rag.retrieve", rid);
        top = s.hybridRetrieve(text);
    }
    std::string prompt = "q: " + text + "\n";
    for (rag::DocId id : top) {
        SpanGuard g(spans, "tee.doc_fetch", rid);
        const auto body = s.shield->get(docPath(id));
        if (!body || std::string(body->begin(), body->end()) !=
                         s.pipeline->store().doc(id).body)
            return out;
        prompt.append(body->begin(), body->end());
        prompt += "\n";
    }
    std::vector<llm::TokenId> tokens = s.tok.encode(prompt);
    tokens.resize(s.shape.promptTokens, static_cast<llm::TokenId>(' '));

    llm::KvCache cache = s.model->makeCache();
    std::vector<float> logits;
    {
        SpanGuard g(spans, "llm.prefill", rid);
        for (llm::TokenId t : tokens)
            logits = s.forward(t, cache);
    }
    s.prefillForwards += tokens.size();

    std::uint64_t last = 0;
    for (unsigned j = 0; j < s.shape.outputTokens; ++j) {
        const llm::TokenId next = argmax(logits);
        tee::SealedMessage sealed;
        {
            SpanGuard g(spans, "tee.seal", rid);
            sealed = s.serverTx->seal(bytesOf(next));
        }
        {
            SpanGuard g(spans, "tee.open", rid);
            if (!s.clientRx->open(sealed))
                return out;
        }
        const std::uint64_t t = nowNs();
        if (j == 0)
            out.ttftS = static_cast<double>(t - t0) * 1e-9;
        else
            out.itlS.push_back(static_cast<double>(t - last) * 1e-9);
        last = t;
        if (j + 1 < s.shape.outputTokens) {
            SpanGuard g(spans, "llm.decode", rid);
            logits = s.forward(next, cache);
            ++s.decodeForwards;
        }
    }
    out.ok = true;
    return out;
}

bool
RagSession::replayRejected()
{
    return s_->lastQuery && !s_->serverRx->open(*s_->lastQuery);
}

std::uint64_t
RagSession::prefillForwards() const
{
    return s_->prefillForwards;
}

std::uint64_t
RagSession::decodeForwards() const
{
    return s_->decodeForwards;
}

double
RagSession::forwardFlops() const
{
    return s_->flops;
}

} // namespace perfbench
