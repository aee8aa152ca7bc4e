#include "mem/mee_tree.hh"

#include <cstring>

#include "util/logging.hh"

namespace cllm::mem {

namespace {

/** Number of nodes at the level above `count` slots with `arity`. */
std::size_t
levelAbove(std::size_t count, unsigned arity)
{
    return (count + arity - 1) / arity;
}

} // namespace

MeeTree::MeeTree(PhysMem &mem, const crypto::Digest256 &master_key,
                 unsigned arity)
    : mem_(mem), arity_(arity),
      cipher_(crypto::toAesKey(crypto::deriveKey(master_key, "mee-data"))),
      macKey_()
{
    if (arity_ < 2)
        cllm_fatal("MeeTree arity must be >= 2, got ", arity_);

    const crypto::Digest256 mk = crypto::deriveKey(master_key, "mee-mac");
    macKey_.assign(mk.begin(), mk.end());

    // Build counter levels until one node covers everything.
    std::size_t slots = mem_.lines();
    counters_.emplace_back(slots, 0); // level 0: per-line versions
    while (slots > arity_) {
        slots = levelAbove(slots, arity_);
        counters_.emplace_back(slots, 0);
    }
    depth_ = static_cast<unsigned>(counters_.size());

    lineMacs_.resize(mem_.lines());
    nodeMacs_.resize(depth_);
    for (unsigned lvl = 0; lvl < depth_; ++lvl)
        nodeMacs_[lvl].resize(levelAbove(counters_[lvl].size(), arity_));

    // Encrypt the initial all-zero contents so that fresh reads
    // decrypt to zero, and MAC everything so first reads verify.
    for (std::size_t i = 0; i < mem_.lines(); ++i) {
        CacheLine zero{};
        cipher_.transform(static_cast<std::uint64_t>(i), 0, zero.data(),
                          zero.size());
        mem_.writeLine(i, zero);
        lineMacs_[i] = lineMac(i, 0, zero);
    }
    for (unsigned lvl = 0; lvl < depth_; ++lvl)
        for (std::size_t n = 0; n < nodeMacs_[lvl].size(); ++n)
            nodeMacs_[lvl][n] = nodeMac(lvl, n);
}

std::vector<std::size_t>
MeeTree::branchIndices(std::size_t line_idx) const
{
    std::vector<std::size_t> out;
    std::size_t idx = line_idx;
    for (unsigned lvl = 0; lvl < depth_; ++lvl) {
        out.push_back(idx);
        idx /= arity_;
    }
    return out;
}

crypto::Digest256
MeeTree::lineMac(std::size_t line_idx, std::uint64_t version,
                 const CacheLine &cipher) const
{
    std::uint8_t buf[16 + kLineBytes];
    for (int i = 0; i < 8; ++i) {
        buf[i] = static_cast<std::uint8_t>(line_idx >> (56 - 8 * i));
        buf[8 + i] = static_cast<std::uint8_t>(version >> (56 - 8 * i));
    }
    std::memcpy(buf + 16, cipher.data(), kLineBytes);
    return crypto::hmacSha256(macKey_, buf, sizeof(buf));
}

crypto::Digest256
MeeTree::nodeMac(unsigned level, std::size_t node_idx) const
{
    // MAC over this node's counters plus the counter that covers this
    // node at the level above (the root counter for the top level).
    std::vector<std::uint8_t> buf;
    buf.reserve((arity_ + 3) * 8);
    auto push_u64 = [&buf](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (56 - 8 * i)));
    };
    push_u64(level);
    push_u64(node_idx);
    const auto &lvl_counters = counters_[level];
    for (unsigned k = 0; k < arity_; ++k) {
        const std::size_t slot = node_idx * arity_ + k;
        push_u64(slot < lvl_counters.size() ? lvl_counters[slot] : 0);
    }
    // The covering counter for node `node_idx` of this level is slot
    // `node_idx` one level up; the top level is covered by the on-chip
    // root counter.
    const std::uint64_t cover = (level + 1 < depth_)
                                    ? counters_[level + 1][node_idx]
                                    : rootCounter_;
    push_u64(cover);
    return crypto::hmacSha256(macKey_, buf.data(), buf.size());
}

void
MeeTree::writeLine(std::size_t line_idx, const CacheLine &plaintext)
{
    if (line_idx >= mem_.lines())
        cllm_panic("MeeTree write out of range: ", line_idx);

    const auto branch = branchIndices(line_idx);

    // Bump the whole counter branch (leaf version and covering nodes).
    for (unsigned lvl = 0; lvl < depth_; ++lvl)
        ++counters_[lvl][branch[lvl]];
    ++rootCounter_;

    const std::uint64_t version = counters_[0][line_idx];
    CacheLine cipher_line = plaintext;
    cipher_.transform(static_cast<std::uint64_t>(line_idx), version,
                      cipher_line.data(), cipher_line.size());
    mem_.writeLine(line_idx, cipher_line);
    lineMacs_[line_idx] = lineMac(line_idx, version, cipher_line);

    // Refresh node MACs along the branch (each level's covering node).
    for (unsigned lvl = 0; lvl < depth_; ++lvl) {
        const std::size_t node = branch[lvl] / arity_;
        nodeMacs_[lvl][node] = nodeMac(lvl, node);
        ++stats_.nodesTouched;
    }
    ++stats_.writes;
}

MeeReadResult
MeeTree::readLine(std::size_t line_idx) const
{
    MeeReadResult result;
    if (line_idx >= mem_.lines())
        cllm_panic("MeeTree read out of range: ", line_idx);

    ++stats_.reads;
    const auto branch = branchIndices(line_idx);

    // Verify the counter branch bottom-up.
    for (unsigned lvl = 0; lvl < depth_; ++lvl) {
        const std::size_t node = branch[lvl] / arity_;
        ++stats_.nodesTouched;
        ++stats_.macChecks;
        if (!crypto::digestEqual(nodeMacs_[lvl][node],
                                 nodeMac(lvl, node))) {
            ++stats_.integrityFailures;
            return result;
        }
    }

    const std::uint64_t version = counters_[0][line_idx];
    const CacheLine cipher_line = mem_.readLine(line_idx);
    ++stats_.macChecks;
    if (!crypto::digestEqual(lineMacs_[line_idx],
                             lineMac(line_idx, version, cipher_line))) {
        ++stats_.integrityFailures;
        return result;
    }

    result.data = cipher_line;
    cipher_.transform(static_cast<std::uint64_t>(line_idx), version,
                      result.data.data(), result.data.size());
    result.ok = true;
    return result;
}

void
MeeTree::tamperCounter(unsigned level, std::size_t idx,
                       std::uint64_t value)
{
    if (level >= depth_ || idx >= counters_[level].size())
        cllm_panic("tamperCounter out of range");
    counters_[level][idx] = value;
}

} // namespace cllm::mem
