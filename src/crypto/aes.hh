/**
 * @file
 * AES-128 block cipher (FIPS 197), portable table-free implementation.
 * Used as the primitive beneath the CTR stream cipher that models TEE
 * memory encryption (TME-MK / MEE) and the Gramine protected-file
 * shield. Verified against the FIPS 197 appendix vectors in tests.
 *
 * Note: this implementation favours clarity over side-channel
 * resistance; it protects simulated memory, not real secrets.
 */

#ifndef CLLM_CRYPTO_AES_HH
#define CLLM_CRYPTO_AES_HH

#include <array>
#include <cstdint>

namespace cllm::crypto {

/** A 128-bit AES key. */
using AesKey = std::array<std::uint8_t, 16>;

/** A 128-bit AES block. */
using AesBlock = std::array<std::uint8_t, 16>;

/**
 * AES-128 with a precomputed key schedule.
 */
class Aes128
{
  public:
    /** Expand the key schedule from a 128-bit key. */
    explicit Aes128(const AesKey &key);

    /** Encrypt one 16-byte block in place. */
    void encryptBlock(AesBlock &block) const;

  private:
    // 11 round keys of 16 bytes each.
    std::uint8_t roundKeys_[176];
};

} // namespace cllm::crypto

#endif // CLLM_CRYPTO_AES_HH
