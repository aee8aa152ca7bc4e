/**
 * @file
 * Encrypted-file shield, modelling Gramine's protected files / LUKS
 * full-disk encryption for TDX (Section III-B): files at rest are
 * AES-CTR encrypted per 4 KiB block and authenticated with an
 * HMAC-SHA256 over (path, block index, ciphertext), keyed from a
 * sealing key. The store is in-memory; the interesting behaviour is
 * the crypto envelope and tamper detection, which the tests exercise.
 */

#ifndef CLLM_TEE_FS_SHIELD_HH
#define CLLM_TEE_FS_SHIELD_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/ctr.hh"
#include "crypto/hmac.hh"

namespace cllm::tee {

/**
 * Encrypted key-value file store.
 */
class FsShield
{
  public:
    /** Bind to a sealing key (e.g. from QuotingEnclave::sealingKey). */
    explicit FsShield(const crypto::Digest256 &sealing_key);

    /** Encrypt and store a file. Overwrites bump the version. */
    void put(const std::string &path,
             const std::vector<std::uint8_t> &plaintext);

    /**
     * Fetch, verify, and decrypt a file. Returns nullopt when absent
     * or when integrity verification fails.
     */
    std::optional<std::vector<std::uint8_t>>
    get(const std::string &path) const;

    /** Number of stored files. */
    std::size_t size() const { return files_.size(); }

    /**
     * Test hook: flip one ciphertext byte, modelling an attacker with
     * storage access. Returns false when the path is absent.
     */
    bool tamper(const std::string &path, std::size_t offset);

  private:
    struct File
    {
        std::vector<std::uint8_t> cipher;
        crypto::Digest256 mac{};
        std::uint64_t version = 0;
    };

    crypto::Digest256 macOf(const std::string &path,
                            const File &f) const;
    std::uint64_t nonceOf(const std::string &path,
                          std::uint64_t version) const;

    crypto::AesCtr cipher_;
    std::vector<std::uint8_t> macKey_;
    std::map<std::string, File> files_;
};

} // namespace cllm::tee

#endif // CLLM_TEE_FS_SHIELD_HH
