/**
 * @file
 * HMAC-SHA256 (RFC 2104) and an HKDF-style key-derivation helper. Used
 * for MEE cache-line MACs, attestation quote signatures (standing in
 * for the vendor's ECDSA quoting enclave), and sealing-key derivation.
 */

#ifndef CLLM_CRYPTO_HMAC_HH
#define CLLM_CRYPTO_HMAC_HH

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/sha256.hh"

namespace cllm::crypto {

/** HMAC-SHA256 over a buffer. */
Digest256 hmacSha256(const std::vector<std::uint8_t> &key,
                     const void *data, std::size_t len);

/**
 * Derive a named 256-bit key from a master secret and a context label
 * (single-step HKDF-Expand with SHA-256).
 */
Digest256 deriveKey(const Digest256 &master, const std::string &label);

/** Truncate a 256-bit digest to a 128-bit AES key. */
AesKey toAesKey(const Digest256 &digest);

/** Constant-time digest comparison. */
bool digestEqual(const Digest256 &a, const Digest256 &b);

} // namespace cllm::crypto

#endif // CLLM_CRYPTO_HMAC_HH
