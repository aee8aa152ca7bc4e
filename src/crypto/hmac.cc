#include "crypto/hmac.hh"

#include <cstring>

namespace cllm::crypto {

Digest256
hmacSha256(const std::vector<std::uint8_t> &key, const void *data,
           std::size_t len)
{
    std::uint8_t block_key[64] = {0};
    if (key.size() > 64) {
        const Digest256 kd = sha256(key.data(), key.size());
        std::memcpy(block_key, kd.data(), kd.size());
    } else {
        std::memcpy(block_key, key.data(), key.size());
    }

    std::uint8_t ipad[64], opad[64];
    for (int i = 0; i < 64; ++i) {
        ipad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
        opad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
    }

    Sha256 inner;
    inner.update(ipad, 64);
    inner.update(data, len);
    const Digest256 inner_digest = inner.finish();

    Sha256 outer;
    outer.update(opad, 64);
    outer.update(inner_digest.data(), inner_digest.size());
    return outer.finish();
}

Digest256
deriveKey(const Digest256 &master, const std::string &label)
{
    std::vector<std::uint8_t> key(master.begin(), master.end());
    std::string info = label;
    info.push_back('\x01');
    return hmacSha256(key, info.data(), info.size());
}

AesKey
toAesKey(const Digest256 &digest)
{
    AesKey key;
    std::memcpy(key.data(), digest.data(), key.size());
    return key;
}

bool
digestEqual(const Digest256 &a, const Digest256 &b)
{
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    return acc == 0;
}

} // namespace cllm::crypto
