/**
 * @file
 * SHA-256 (FIPS 180-4). Used for enclave measurement, trusted-file
 * hashes in Gramine manifests, HMAC, and key derivation. This is a
 * straightforward portable implementation, verified against the NIST
 * test vectors in the unit tests.
 */

#ifndef CLLM_CRYPTO_SHA256_HH
#define CLLM_CRYPTO_SHA256_HH

#include <array>
#include <cstdint>
#include <cstddef>
#include <string>

namespace cllm::crypto {

/** A 256-bit digest. */
using Digest256 = std::array<std::uint8_t, 32>;

/**
 * Incremental SHA-256 hasher.
 *
 * @code
 *   Sha256 h;
 *   h.update(data, len);
 *   Digest256 d = h.finish();
 * @endcode
 */
class Sha256
{
  public:
    Sha256();

    /** Absorb `len` bytes. */
    void update(const void *data, std::size_t len);

    /** Absorb a string's bytes. */
    void update(const std::string &data);

    /** Finalize and return the digest; the hasher must not be reused. */
    Digest256 finish();

  private:
    void processBlock(const std::uint8_t *block);

    std::uint32_t h_[8];
    std::uint8_t buf_[64];
    std::size_t bufLen_ = 0;
    std::uint64_t totalLen_ = 0;
    bool finished_ = false;
};

/** One-shot SHA-256 of a buffer. */
Digest256 sha256(const void *data, std::size_t len);

/** One-shot SHA-256 of a string. */
Digest256 sha256(const std::string &data);

} // namespace cllm::crypto

#endif // CLLM_CRYPTO_SHA256_HH
