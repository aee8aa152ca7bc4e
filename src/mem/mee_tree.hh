/**
 * @file
 * Functional model of a Memory Encryption Engine (MEE) integrity
 * counter tree, in the style of SGX's MEE (Gueron 2016). Protected
 * cache lines are encrypted with AES-CTR keyed by (line address,
 * version counter) and authenticated with an HMAC over (address,
 * version, ciphertext). Version counters are grouped into tree nodes;
 * each node is itself authenticated by a MAC whose key material chains
 * up to an on-chip root that an attacker cannot touch.
 *
 * This gives the library a real, attackable/verifiable implementation
 * of the mechanism the paper attributes much of the SGX/TDX overhead
 * to: every read walks and verifies the branch, every write bumps
 * counters up to the root. The timing path does not read it: the SGX
 * and TDX byte taxes are constants fitted to the paper's bands
 * (`tee::SgxConfig::meeBwTax`, `tee::TdxConfig::tmeBwTax`).
 */

#ifndef CLLM_MEM_MEE_TREE_HH
#define CLLM_MEM_MEE_TREE_HH

#include <cstdint>
#include <vector>

#include "crypto/ctr.hh"
#include "crypto/hmac.hh"
#include "mem/phys_mem.hh"

namespace cllm::mem {

/** Result of a verified read. */
struct MeeReadResult
{
    CacheLine data{};       //!< plaintext (valid only if ok)
    bool ok = false;        //!< false when integrity verification failed
};

/** Counters describing MEE activity. */
struct MeeStats
{
    std::uint64_t reads = 0;       //!< protected-line reads
    std::uint64_t writes = 0;      //!< protected-line writes
    std::uint64_t nodesTouched = 0;//!< tree nodes read or updated
    std::uint64_t macChecks = 0;   //!< MAC verifications performed
    std::uint64_t integrityFailures = 0; //!< detected tampering events
};

/**
 * Counter-tree memory encryption engine over a PhysMem.
 *
 * The tree has a fixed arity (counters per node). Leaf nodes hold one
 * version counter per protected cache line; internal nodes hold one
 * counter per child node. The root counter lives "on chip" (a private
 * member an attacker cannot reach through PhysMem::raw()).
 */
class MeeTree
{
  public:
    /**
     * Protect `mem` entirely.
     *
     * @param mem simulated DRAM holding ciphertext
     * @param master_key on-chip key; all MEE keys derive from it
     * @param arity counters per tree node (SGX uses 8 per 64B node)
     */
    MeeTree(PhysMem &mem, const crypto::Digest256 &master_key,
            unsigned arity = 8);

    /** Encrypt and store one line; bumps the counter branch to root. */
    void writeLine(std::size_t line_idx, const CacheLine &plaintext);

    /** Fetch, verify, and decrypt one line. */
    MeeReadResult readLine(std::size_t line_idx) const;

    /** Depth of the counter tree (levels above the leaves). */
    unsigned depth() const { return depth_; }

    /** Activity counters (mutable across const reads). */
    const MeeStats &stats() const { return stats_; }

    /** Reset activity counters. */
    void clearStats() { stats_ = MeeStats{}; }

  private:
    /** Version-counter path for one line, leaf to root. */
    std::vector<std::size_t> branchIndices(std::size_t line_idx) const;

    /** MAC over (line index, version, ciphertext). */
    crypto::Digest256 lineMac(std::size_t line_idx, std::uint64_t version,
                              const CacheLine &cipher) const;

    /** MAC over one tree level's node (its counters + parent counter). */
    crypto::Digest256 nodeMac(unsigned level, std::size_t node_idx) const;

    PhysMem &mem_;
    unsigned arity_;
    unsigned depth_;

    // Per-level counter storage; level 0 = per-line versions. These
    // model counters held in DRAM (attack surface exposed via
    // tamperCounter() below), while rootCounter_ is on-chip.
    std::vector<std::vector<std::uint64_t>> counters_;
    // Per-level node MACs (level 0 nodes group `arity_` line counters).
    std::vector<std::vector<crypto::Digest256>> nodeMacs_;
    // Per-line data MACs.
    std::vector<crypto::Digest256> lineMacs_;

    std::uint64_t rootCounter_ = 0;

    crypto::AesCtr cipher_;
    std::vector<std::uint8_t> macKey_;

    mutable MeeStats stats_;

  public:
    /**
     * Test hook modelling a physical attacker flipping a stored
     * version counter (replay attempt). Level 0 is the per-line
     * counters.
     */
    void tamperCounter(unsigned level, std::size_t idx,
                       std::uint64_t value);
};

} // namespace cllm::mem

#endif // CLLM_MEM_MEE_TREE_HH
